package runtime

import (
	"bytes"
	"context"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
)

// ownershipProgram is f::w saving src into n and writing it to g::sink,
// which is never scheduled: its table only accumulates the update.
func ownershipProgram(src []byte) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("w", dsl.Def(
		dsl.Decls(dsl.InitData{Name: "n"}),
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return src, nil }},
		dsl.Write{Data: "n", To: dsl.J("g", "sink")},
	))
	p.Type("tau_g").Junction("sink", dsl.Def(dsl.Decls(dsl.InitData{Name: "n"}), dsl.Skip{}))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	return p
}

func sinkData(t *testing.T, s *System) []byte {
	t.Helper()
	sink, err := s.Junction("g", "sink")
	if err != nil {
		t.Fatal(err)
	}
	sink.Table().ApplyPending()
	b, err := sink.Table().DataRef("n")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeUpdateKeepsOnlyOwnedPayloads pins the receive-side rule: an
// Owned data payload becomes the table value as it is, and any other is
// copied once.
func TestDecodeUpdateKeepsOnlyOwnedPayloads(t *testing.T) {
	payload := []byte("value")
	for _, owned := range []bool{true, false} {
		u, seq, ok := decodeUpdate(compart.Message{Kind: compart.KindData, Key: "n", Seq: 3, Payload: payload, Owned: owned})
		if !ok || seq != 3 || !bytes.Equal(u.Data, payload) {
			t.Fatalf("owned=%t: decoded (%+v, %d, %t)", owned, u, seq, ok)
		}
		if shared := &u.Data[0] == &payload[0]; shared != owned {
			t.Fatalf("owned=%t: table value shares the payload: %t", owned, shared)
		}
	}
	if _, _, ok := decodeUpdate(compart.Message{Kind: compart.KindProp, Key: "P"}); ok {
		t.Fatal("an update with seq 0 (never issued) was accepted")
	}
}

// TestInProcessWriteIsolatedFromSource checks that an in-process write,
// once acknowledged, no longer depends on the sender's memory: the sender
// overwriting the buffer its save hook returned leaves the receiver's value
// intact.
func TestInProcessWriteIsolatedFromSource(t *testing.T) {
	src := []byte("original state")
	s := mustSystem(t, ownershipProgram(src), Options{AckTimeout: 5 * time.Second})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "w"); err != nil {
		t.Fatal(err)
	}
	copy(src, "OVERWRITTEN!!!")
	if got := sinkData(t, s); string(got) != "original state" {
		t.Fatalf("receiver holds %q after the sender reused its buffer", got)
	}
}

// TestBatchMemberDoesNotShareEnvelope checks that a data update delivered
// inside a batch envelope is stored as its own copy: rewriting the envelope
// after delivery leaves the receiver's value intact, so a kept member never
// pins the whole envelope.
func TestBatchMemberDoesNotShareEnvelope(t *testing.T) {
	s := mustSystem(t, ownershipProgram([]byte("unused")), Options{AckTimeout: 5 * time.Second})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Members of a decoded envelope alias one buffer and are not Owned.
	env := []byte("first-second-trailing envelope bytes")
	s.Net().SendBatch([]compart.Message{
		{From: "f::w", To: "g::sink", Kind: compart.KindData, Key: "n", Seq: 1, Payload: env[:5]},
		{From: "f::w", To: "g::sink", Kind: compart.KindData, Key: "n", Seq: 2, Payload: env[6:12]},
	})
	got := sinkData(t, s)
	for i := range env {
		env[i] = 'x'
	}
	if string(got) != "second" {
		t.Fatalf("receiver holds %q after the envelope was rewritten", got)
	}
}
