//go:build !race

// The race detector changes allocation counts (sync.Pool drops items at
// random under -race), so this gate runs only in non-race builds.

package runtime

import (
	"context"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"csaw/internal/compart"
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
		// on linux/amd64 (4.00 and 3.12) plus about half an allocation of
		// headroom for toolchain drift — less than one whole allocation, so
		// any new per-update allocation fails the gate.
		bound float64
	}{
		{"one", 1, 4.5},
		{"par", width, 3.5},
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

// TestRemoteWriteTCPAllocs bounds the bytes allocated per solo remote write
// of a 256 KiB value across a real TCP pair (two systems in one process, so
// the count covers both ends). A write costs one copy of the value on each
// side of the wire — the sender's frame encode and the receiver's socket
// read, whose buffer the receiving table keeps — plus page rounding and
// small per-update objects; the bound of 2.5× the value size leaves room
// for those and fails at a third copy.
func TestRemoteWriteTCPAllocs(t *testing.T) {
	const size = 256 << 10
	src := make([]byte, size)
	netA, netB := compart.NewNetwork(1), compart.NewNetwork(2)
	sysA := mustSystem(t, ownershipProgram(src), Options{Net: netA, AckTimeout: 10 * time.Second})
	sysB := mustSystem(t, ownershipProgram(src), Options{Net: netB, AckTimeout: 10 * time.Second})
	serve := func(n *compart.Network) *compart.Client {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := compart.ServeTCP(n, l)
		t.Cleanup(srv.Close)
		c, err := compart.DialTCP(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	toB, toA := serve(netB), serve(netA)
	if err := sysA.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := sysB.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	compart.Bridge(netA, "g::sink", toB)
	compart.Bridge(netB, "f::w", toA)

	ctx := context.Background()
	write := func() {
		if err := sysA.Invoke(ctx, "f", "w"); err != nil {
			t.Fatal(err)
		}
		if got := sinkData(t, sysB); len(got) != size {
			t.Fatalf("sink holds %d bytes, want %d", len(got), size)
		}
	}
	for i := 0; i < 3; i++ {
		write() // warm the ack window, pools and intern caches
	}
	const writes = 20
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		write()
	}
	goruntime.ReadMemStats(&after)
	perWrite := float64(after.TotalAlloc-before.TotalAlloc) / writes / size
	t.Logf("%.2f× the value size allocated per write", perWrite)
	if perWrite > 2.5 {
		t.Errorf("%.2f× the value size allocated per remote write, bound 2.5×", perWrite)
	}
}
