package compart

// Fuzz targets for the update plane's wire decoders. Arbitrary bytes must
// never panic DecodeMessage or DecodeBatch, and whatever they accept must be
// a decode→encode→decode fixed point: re-encoding the decoded messages and
// decoding again yields the same messages. Both targets also hold the
// server's interning, payload-aliasing decoders to the public ones: every
// wire field must agree, and Owned must be what each decoder promises —
// set by the copying public decoders, unset on aliased payloads.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzSeedMessages are the frame shapes the runtime sends: a control frame
// with no fields, prop and data updates carrying their seq in the header, a
// cumulative ack with a vectored extra, and an empty update.
func fuzzSeedMessages() []Message {
	ack := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 41), 43)
	return []Message{
		{Kind: KindControl},
		{From: "f::junction", To: "g::junction", Kind: KindProp, Key: "Work", Flag: true, Seq: 7},
		{From: "f::junction", To: "g::junction", Kind: KindData, Key: "n", Seq: 1<<63 + 9, Payload: []byte("sunk")},
		{From: "g::junction", To: "f::junction", Kind: KindControl, Key: "ack", Payload: ack},
		{},
	}
}

// sameWire reports whether two messages agree on every field that crosses
// the wire; Owned is a property of the decoder, checked separately.
func sameWire(a, b Message) bool {
	return a.From == b.From && a.To == b.To && a.Kind == b.Kind && a.Key == b.Key &&
		a.Flag == b.Flag && a.Seq == b.Seq && bytes.Equal(a.Payload, b.Payload)
}

func fuzzSeedFrames(f *testing.F) [][]byte {
	var frames [][]byte
	for _, m := range fuzzSeedMessages() {
		b, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b)
	}
	return frames
}

func FuzzDecodeMessage(f *testing.F) {
	frames := fuzzSeedFrames(f)
	for _, b := range frames {
		f.Add(b)
	}
	f.Add(appendBatchEnvelope(nil, frames))
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := DecodeMessage(frame)
		aliased, aerr := decodeMessageIn(append([]byte(nil), frame...), strIntern{}, true)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("DecodeMessage error %v but aliasing decoder error %v", err, aerr)
		}
		if err != nil {
			return
		}
		if !sameWire(m, aliased) {
			t.Fatalf("aliasing decoder disagrees:\n%+v\n%+v", m, aliased)
		}
		if !m.Owned || aliased.Owned {
			t.Fatalf("Owned: DecodeMessage %t (want true), aliasing decoder %t (want false)", m.Owned, aliased.Owned)
		}
		if !hasSeq(m.Kind) && m.Seq != 0 {
			t.Fatalf("kind %d decoded with seq %d", m.Kind, m.Seq)
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode→encode→decode changed the message:\n%+v\n%+v", m, m2)
		}
		if enc2, _ := EncodeMessage(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, enc2)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	frames := fuzzSeedFrames(f)
	for i := range frames {
		f.Add(appendBatchEnvelope(nil, frames[i:])[batchEnvelopeOverhead:])
	}
	f.Add(appendBatchEnvelope(nil, nil)[batchEnvelopeOverhead:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		msgs, err := DecodeBatch(payload)
		interned, ierr := decodeBatch(append([]byte(nil), payload...), strIntern{})
		if (err == nil) != (ierr == nil) {
			t.Fatalf("DecodeBatch error %v but interning decoder error %v", err, ierr)
		}
		if err != nil {
			return
		}
		if len(msgs) != len(interned) {
			t.Fatalf("DecodeBatch found %d entries, interning decoder %d", len(msgs), len(interned))
		}
		for i := range msgs {
			if !sameWire(msgs[i], interned[i]) {
				t.Fatalf("interning decoder disagrees at entry %d:\n%+v\n%+v", i, msgs[i], interned[i])
			}
			if !msgs[i].Owned || interned[i].Owned {
				t.Fatalf("entry %d Owned: DecodeBatch %t (want true), interning decoder %t (want false)", i, msgs[i].Owned, interned[i].Owned)
			}
		}
		bodies := make([][]byte, len(msgs))
		for i, m := range msgs {
			if bodies[i], err = EncodeMessage(m); err != nil {
				t.Fatalf("re-encoding accepted entry %d: %v", i, err)
			}
		}
		env, err := DecodeMessage(appendBatchEnvelope(nil, bodies))
		if err != nil || env.Kind != KindBatch {
			t.Fatalf("re-encoded envelope: kind %d, err %v", env.Kind, err)
		}
		msgs2, err := DecodeBatch(env.Payload)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if !reflect.DeepEqual(msgs, msgs2) {
			t.Fatalf("decode→encode→decode changed the batch:\n%+v\n%+v", msgs, msgs2)
		}
	})
}
