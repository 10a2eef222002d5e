package runtime

// Fuzz target for the ack payload decoder, the one runtime-level parser of
// bytes that cross a network boundary (update frames are parsed by compart's
// fuzzed decoders). Arbitrary payloads must never panic decodeAck, and
// whatever it accepts must survive an appendAck→decodeAck round trip.

import (
	"bytes"
	"slices"
	"testing"
)

func FuzzDecodeAck(f *testing.F) {
	f.Add(appendAck(41, nil))
	f.Add(appendAck(41, []uint64{43, 47}))
	f.Add(appendAck(1<<64-1, []uint64{0}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(append(appendAck(5, []uint64{9}), 0xff, 0xfe)) // trailing partial extra
	f.Fuzz(func(t *testing.T, payload []byte) {
		cum, extras, ok := decodeAck(payload)
		if !ok {
			if len(payload) >= 8 {
				t.Fatalf("rejected a %d-byte payload", len(payload))
			}
			return
		}
		if len(extras) != (len(payload)-8)/8 {
			t.Fatalf("%d extras from a %d-byte payload", len(extras), len(payload))
		}
		enc := appendAck(cum, extras)
		if whole := payload[:8+8*len(extras)]; !bytes.Equal(enc, whole) {
			t.Fatalf("appendAck(decodeAck(p)) = %x, want %x", enc, whole)
		}
		cum2, extras2, ok := decodeAck(enc)
		if !ok || cum2 != cum || !slices.Equal(extras2, extras) {
			t.Fatalf("round trip: (%d, %v, %t), want (%d, %v)", cum2, extras2, ok, cum, extras)
		}
	})
}
