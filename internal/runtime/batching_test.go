package runtime

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
)

// blackholeProgram: f fires width parallel asserts at g, whose endpoint the
// test replaces with a sink that swallows updates and never acks.
func blackholeProgram(width int) *dsl.Program {
	p := dsl.NewProgram()
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")}
	}
	body := dsl.Def(dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), arms)
	if width == 1 {
		body = dsl.Def(dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), arms[0])
	}
	p.Type("tau_f").Junction("junction", body)
	// g exists in the program so references resolve, but is never started:
	// the tests register their own endpoint for it.
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), dsl.Skip{}))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Start{Instance: "f"})
	return p
}

// TestSendUpdateCtxCancelLeavesNoWaiters is the regression test for the
// ctx-done path of the remote-update plane: cancelling the invocation
// mid-flight must return promptly and leave no waiter behind in the ack
// window — for a single statement (a send group of one) and for a par of
// remote asserts issued as one group.
func TestSendUpdateCtxCancelLeavesNoWaiters(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		for _, width := range []int{1, 8} {
			t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
				netA := compart.NewNetwork(1)
				defer netA.Close()
				s := mustSystem(t, blackholeProgram(width), Options{
					Net:        netA,
					AckTimeout: 30 * time.Second, // only ctx can end the wait
				})
				defer s.Close()
				if err := s.StartInstance("f", nil); err != nil {
					t.Fatal(err)
				}
				// g's endpoint swallows every update: no ack will ever arrive.
				netA.Register("g::junction", func(compart.Message) {})

				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				start := time.Now()
				err := s.Invoke(ctx, "f", "junction")
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("invoke against a black-hole peer: got %v, want ErrTimeout", err)
				}
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					t.Fatalf("ctx-cancelled update took %v to return", elapsed)
				}
				if n := s.pendingAcks("f::junction", "g::junction"); n != 0 {
					t.Fatalf("%d waiters leaked in the ack window after cancellation", n)
				}
			})
		}
	})
}

// TestCumulativeAckPipelining drives a wide par of remote asserts through
// one (sender, receiver) ack window and checks the statement completes with
// the window fully drained and its cumulative frontier advanced to the last
// sequence — i.e. the arms were acknowledged by ranges, not one round trip
// at a time.
func TestCumulativeAckPipelining(t *testing.T) {
	const width = 64
	p := dsl.NewProgram()
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")}
	}
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), arms))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Go"))) // never true: updates queue, acks still flow
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	s := mustSystem(t, p, Options{AckTimeout: 10 * time.Second})
	defer s.Close()
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if err := s.Invoke(ctx, "f", "junction"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if n := s.pendingAcks("f::junction", "g::junction"); n != 0 {
		t.Fatalf("%d waiters still pending after all pars completed", n)
	}
	w := s.window("f::junction", "g::junction")
	w.mu.Lock()
	cum, next := w.cum, w.nextSeq
	w.mu.Unlock()
	if next != rounds*width {
		t.Fatalf("window issued %d sequences, want %d", next, rounds*width)
	}
	if cum != next {
		t.Fatalf("cumulative frontier %d short of last issued seq %d", cum, next)
	}
}

// TestWatchdogFailsStalledWindow: when a peer accepts updates but never
// acks, the per-window progress watchdog must fail every in-flight update on
// the pair within a small multiple of AckTimeout — and leave no waiters
// behind.
func TestWatchdogFailsStalledWindow(t *testing.T) {
	const width = 8
	netA := compart.NewNetwork(1)
	defer netA.Close()
	s := mustSystem(t, blackholeProgram(width), Options{
		Net:        netA,
		AckTimeout: 100 * time.Millisecond,
	})
	defer s.Close()
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	netA.Register("g::junction", func(compart.Message) {})

	start := time.Now()
	err := s.Invoke(context.Background(), "f", "junction")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("invoke succeeded with no acks")
	}
	// The watchdog bounds the oldest unacked update by ~2x AckTimeout; allow
	// generous scheduling slack on a loaded host.
	if elapsed > 2*time.Second {
		t.Fatalf("stalled window held the par for %v (AckTimeout 100ms)", elapsed)
	}
	if n := s.pendingAcks("f::junction", "g::junction"); n != 0 {
		t.Fatalf("%d waiters leaked after window failure", n)
	}
}

// TestParPartialPeerFailureKeepsBarrier: a par of remote asserts to a live
// g, a crashed h and g again keeps the par barrier in both execution modes —
// every arm is issued, so g queues both of its updates; the invocation fails
// with the crashed peer's ErrPeerDown; and no waiter is left on either pair.
func TestParPartialPeerFailureKeepsBarrier(t *testing.T) {
	build := func() *dsl.Program {
		p := dsl.NewProgram()
		p.Type("tau_f").Junction("junction", dsl.Def(nil, dsl.Par{
			dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
			dsl.Assert{Target: dsl.J("h", "junction"), Prop: dsl.PR("Work")},
			dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
		}))
		p.Type("tau_g").Junction("junction", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
			dsl.Skip{},
		).Guarded(formula.P("Go"))) // never true: updates queue, acks still flow
		p.Instance("f", "tau_f").Instance("g", "tau_g").Instance("h", "tau_g")
		p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}, dsl.Start{Instance: "h"}})
		return p
	}
	for _, interpreted := range []bool{false, true} {
		name := "compiled"
		if interpreted {
			name = "interpreted"
		}
		t.Run(name, func(t *testing.T) {
			s := mustSystem(t, build(), Options{AckTimeout: 10 * time.Second, DisableCompiledPlan: interpreted})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.RunMain(ctx); err != nil {
				t.Fatal(err)
			}
			s.CrashInstance("h")
			err := s.Invoke(ctx, "f", "junction")
			if !errors.Is(err, ErrPeerDown) {
				t.Fatalf("par with a crashed peer: got %v, want ErrPeerDown", err)
			}
			g, err := s.Junction("g", "junction")
			if err != nil {
				t.Fatal(err)
			}
			if n := g.met.RemoteQueued.Load(); n != 2 {
				t.Fatalf("g queued %d updates, want both live arms (2)", n)
			}
			for _, to := range []string{"g::junction", "h::junction"} {
				if n := s.pendingAcks("f::junction", to); n != 0 {
					t.Fatalf("%d waiters left on f -> %s", n, to)
				}
			}
		})
	}
}

// TestParArmFIFOTortureOverTCP is the ordering torture test: eight source
// junctions on machine A each fire rounds of parallel asserts at one sink
// table on machine B over a real TCP bridge with batching on. §6's
// per-channel FIFO guarantee must survive coalescing, batch envelopes and
// cumulative acks: in the sink's trace, the remote.queued sequence numbers
// must be strictly increasing per source junction.
func TestParArmFIFOTortureOverTCP(t *testing.T) {
	const (
		nSrc   = 8
		width  = 16
		rounds = 5
	)
	build := func() *dsl.Program {
		p := dsl.NewProgram()
		arms := make(dsl.Par, width)
		for i := range arms {
			arms[i] = dsl.Assert{Target: dsl.J("sink", "main"), Prop: dsl.PR("U")}
		}
		p.Type("src").Junction("push", dsl.Def(nil, arms))
		p.Type("sinkT").Junction("main", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
			dsl.Skip{},
		).Guarded(formula.P("Go")))
		starts := make(dsl.Par, 0, nSrc+1)
		for i := 0; i < nSrc; i++ {
			name := fmt.Sprintf("s%d", i)
			p.Instance(name, "src")
			starts = append(starts, dsl.Start{Instance: name})
		}
		p.Instance("sink", "sinkT")
		starts = append(starts, dsl.Start{Instance: "sink"})
		p.SetMain(starts)
		return p
	}

	netA := compart.NewNetwork(1)
	defer netA.Close()
	netB := compart.NewNetwork(2)
	defer netB.Close()
	ring := obsv.NewRingSink(nSrc*width*rounds + 4096)
	sysA, err := New(build(), Options{Net: netA, AckTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	sysB, err := New(build(), Options{Net: netB, AckTimeout: 10 * time.Second, Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()

	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvA := compart.ServeTCP(netA, lA)
	defer srvA.Close()
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvB := compart.ServeTCP(netB, lB)
	defer srvB.Close()
	toB, err := compart.DialTCP(srvB.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer toB.Close()
	toA, err := compart.DialTCP(srvA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer toA.Close()

	for i := 0; i < nSrc; i++ {
		if err := sysA.StartInstance(fmt.Sprintf("s%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sysB.StartInstance("sink", nil); err != nil {
		t.Fatal(err)
	}
	compart.Bridge(netA, "sink::main", toB)
	for i := 0; i < nSrc; i++ {
		compart.Bridge(netB, fmt.Sprintf("s%d::push", i), toA)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, nSrc)
	for i := 0; i < nSrc; i++ {
		name := fmt.Sprintf("s%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := sysA.Invoke(ctx, name, "push"); err != nil {
					errs <- fmt.Errorf("%s round %d: %w", name, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every acked update was queued at the sink; replay the sink's trace and
	// check per-source sequence monotonicity.
	lastSeq := map[string]int64{}
	queued := map[string]int{}
	for _, e := range ring.Events() {
		if e.Kind != obsv.EvRemoteQueued || e.Junction != "sink::main" || e.Peer == "" {
			continue
		}
		if last, ok := lastSeq[e.Peer]; ok && e.N <= last {
			t.Fatalf("FIFO violated for %s: seq %d arrived after %d", e.Peer, e.N, last)
		}
		lastSeq[e.Peer] = e.N
		queued[e.Peer]++
	}
	if len(queued) != nSrc {
		t.Fatalf("trace saw %d source pairs, want %d (%v)", len(queued), nSrc, queued)
	}
	for peer, n := range queued {
		if n != width*rounds {
			t.Fatalf("%s: %d updates traced at the sink, want %d", peer, n, width*rounds)
		}
	}
	if !netA.Stats().Conserved() || !netB.Stats().Conserved() {
		t.Fatalf("transport counters not conserved: A %+v B %+v", netA.Stats(), netB.Stats())
	}
}
