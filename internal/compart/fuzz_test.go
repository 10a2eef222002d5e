package compart

// Fuzz targets for the update plane's wire decoders. Arbitrary bytes must
// never panic DecodeMessage or DecodeBatch, and whatever they accept must be
// a decode→encode→decode fixed point: re-encoding the decoded messages and
// decoding again yields the same messages. FuzzDecodeBatch also holds the
// server's interning, payload-aliasing batch decoder to DecodeBatch.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzSeedMessages are the frame shapes the runtime sends: seq-prefixed
// prop and data updates, a cumulative ack with a vectored extra, and an
// empty message.
func fuzzSeedMessages() []Message {
	seq := binary.BigEndian.AppendUint64(nil, 7)
	ack := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 41), 43)
	return []Message{
		{},
		{From: "f::junction", To: "g::junction", Kind: KindProp, Key: "Work", Flag: true, Payload: seq},
		{From: "f::junction", To: "g::junction", Kind: KindData, Key: "n", Payload: append(append([]byte(nil), seq...), "sunk"...)},
		{From: "g::junction", To: "f::junction", Kind: KindControl, Key: "ack", Payload: ack},
	}
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
		if err != nil {
			return
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
		if !reflect.DeepEqual(msgs, interned) {
			t.Fatalf("interning decoder disagrees:\n%+v\n%+v", msgs, interned)
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
