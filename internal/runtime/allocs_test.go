//go:build !race

// The race detector changes allocation counts (sync.Pool drops items at
// random under -race), so this gate runs only in non-race builds.

package runtime

import (
	"context"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// TestRemoteUpdateAllocsGate bounds the allocations of the remote-update
// plane per acknowledged update, over an in-process network with drivers
// off: a single remote assert (a send group of one) and a 64-arm par of
// remote asserts (one send group). The count covers both ends — the
// sender's frame, the delivery, the receiver's queueing and its ack — and
// does not depend on the host.
func TestRemoteUpdateAllocsGate(t *testing.T) {
	const width = 64
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: dsl.J("g", "sink"), Prop: dsl.PR("Work")}
	}
	p := dsl.NewProgram()
	p.Type("tau_f").
		Junction("one", dsl.Def(nil, dsl.Assert{Target: dsl.J("g", "sink"), Prop: dsl.PR("Work")})).
		Junction("par", dsl.Def(nil, arms))
	p.Type("tau_g").Junction("sink", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Go")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	s := mustSystem(t, p, Options{AckTimeout: 10 * time.Second, DisableDrivers: true})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	sink, err := s.Junction("g", "sink")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		junction string
		updates  int
		// bound is allocations per update: the count measured with go1.24
		// on linux/amd64 (5.00 and 4.12) plus about 10% headroom for
		// toolchain drift.
		bound float64
	}{
		{"one", 1, 5.5},
		{"par", width, 4.5},
	} {
		invoke := func() {
			if err := s.Invoke(ctx, "f", tc.junction); err != nil {
				t.Fatal(err)
			}
			// Keep the sink's pending queue from growing across runs.
			sink.Table().ApplyPending()
		}
		invoke() // create the ack window and warm the pools
		perUpdate := testing.AllocsPerRun(200, invoke) / float64(tc.updates)
		t.Logf("%s: %.2f allocs/update", tc.junction, perUpdate)
		if perUpdate > tc.bound {
			t.Errorf("%s: %.2f allocs per update, bound %.2f", tc.junction, perUpdate, tc.bound)
		}
	}
}
