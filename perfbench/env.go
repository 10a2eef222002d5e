package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/obsv"
	csr "csaw/internal/runtime"
)

// arch is one workload's architecture instance: the program, where its
// instances live, the applications behind its host hooks, and how to drive
// and check it.
type arch struct {
	prog *dsl.Program
	// atB lists the instances placed at location B; the rest live at A.
	atB []string
	// apps are handed to System.SetApp before the instances start.
	apps map[string]any
	// preload fills the applications before the first op (may be nil).
	preload func() error
	// roots are the junctions client i invokes (roots[i % len]).
	roots []rootRef
	// op drives one operation for a client and checks its output; a
	// non-nil error counts the op as failed.
	op func(ctx context.Context, sys *csr.System, client int) (time.Duration, error)
	// check runs the workload's quiescent correctness checks.
	check func(sys *csr.System) error
	// probe is the instance the post-window migration probe moves.
	probe string
	// close releases the applications.
	close func()
}

type rootRef struct{ inst, jn string }

func (r rootRef) fq() string { return r.inst + "::" + r.jn }

// setupTimes are the phases of one set-up.
type setupTimes struct {
	build, validate, connect, compile, preload, start, firstOp, total time.Duration
}

// uplink is a deployment uplink backed by a TCP client. When counting is
// on (traced runs) every Send is counted, sized and timed; otherwise the
// client's Send is handed to the deployment untouched.
type uplink struct {
	c           *compart.Client
	msgs, bytes atomic.Uint64
	sendNs      atomic.Int64
}

func (u *uplink) send(m compart.Message) error {
	t := time.Now()
	err := u.c.Send(m)
	u.sendNs.Add(int64(time.Since(t)))
	u.msgs.Add(1)
	// Frame body size as compart.AppendMessage lays it out.
	u.bytes.Add(uint64(12 + len(m.From) + len(m.To) + len(m.Key) + len(m.Payload)))
	return err
}

// env is a live two-location deployment: locations A and B, each a
// compart.Network served over loopback TCP, joined by one client
// connection in each direction.
type env struct {
	arch    *arch
	sys     *csr.System
	dep     *csr.Deployment
	nets    [2]*compart.Network // A, B
	srvs    [2]*compart.Server  // serving A, B
	ups     [2]*uplink          // A→B, B→A
	times   setupTimes
	closers []func()
}

// newEnv sets up one deployment of the workload and runs its first op.
// tr, when non-nil, is installed as the system's trace sink and the uplinks
// are wrapped for counting.
func newEnv(ctx context.Context, w *workload, seed int64, tr *recorder) (*env, error) {
	e := &env{}
	var sink obsv.Sink
	if tr != nil {
		sink = tr
	}
	t0 := time.Now()
	a := w.newArch(seed, tr)
	e.arch = a
	e.closers = append(e.closers, a.close)
	t1 := time.Now()
	if err := dsl.Validate(a.prog); err != nil {
		e.close()
		return nil, fmt.Errorf("validate: %w", err)
	}
	t2 := time.Now()

	for i := range e.nets {
		n := compart.NewNetwork(seed + int64(i))
		e.nets[i] = n
		e.closers = append(e.closers, n.Close)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := compart.ServeTCP(n, l)
		e.srvs[i] = srv
		e.closers = append(e.closers, func() { srv.Close() })
	}
	// ups[0] carries A→B (dials B's server), ups[1] carries B→A.
	for i := range e.ups {
		c, err := compart.DialTCPConfig(e.srvs[1-i].Addr().String(), compart.ClientConfig{QueueSize: 4096})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.ups[i] = &uplink{c: c}
		e.closers = append(e.closers, func() { c.Close() })
	}
	upFn := func(u *uplink) csr.Uplink {
		if tr == nil {
			return u.c.Send
		}
		return u.send
	}
	e.dep = csr.NewDeployment().
		AddLocation("A", e.nets[0]).
		AddLocation("B", e.nets[1]).
		Connect("A", "B", upFn(e.ups[0])).
		Connect("B", "A", upFn(e.ups[1]))
	for _, inst := range a.atB {
		e.dep.Place(inst, "B")
	}
	t3 := time.Now()

	sys, err := csr.New(a.prog, csr.Options{
		Deploy:     e.dep,
		AckTimeout: 10 * time.Second,
		Trace:      sink,
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("runtime.New: %w", err)
	}
	e.sys = sys
	t4 := time.Now()

	if a.preload != nil {
		if err := a.preload(); err != nil {
			e.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	t5 := time.Now()

	for inst, app := range a.apps {
		sys.SetApp(inst, app)
	}
	for _, inst := range a.prog.InstanceNames() {
		if err := sys.StartInstance(inst, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("start %s: %w", inst, err)
		}
	}
	t6 := time.Now()

	if _, err := a.op(ctx, sys, 0); err != nil {
		e.close()
		return nil, fmt.Errorf("first op: %w", err)
	}
	t7 := time.Now()
	e.times = setupTimes{
		build: t1.Sub(t0), validate: t2.Sub(t1), connect: t3.Sub(t2), compile: t4.Sub(t3),
		preload: t5.Sub(t4), start: t6.Sub(t5), firstOp: t7.Sub(t6), total: t7.Sub(t0),
	}
	return e, nil
}

// close tears the deployment down in reverse order of construction.
func (e *env) close() {
	if e.sys != nil {
		e.sys.Close()
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// transport is a point-in-time reading of every transport counter the
// deployment exposes.
type transport struct {
	nets            [2]compart.Stats
	links           [2]compart.LatencySummary // summed over every link of a network
	srvs            [2]compart.ServerStats
	clients         [2]compart.ClientStats
	upMsgs, upBytes uint64
	upSendNs        int64
}

func (e *env) transport() transport {
	var t transport
	for i := range e.nets {
		t.nets[i] = e.nets[i].Stats()
		for _, ls := range e.nets[i].AllLinkStats() {
			t.links[i].Count += ls.Latency.Count
			t.links[i].Sum += ls.Latency.Sum
		}
		t.srvs[i] = e.srvs[i].Stats()
		t.clients[i] = e.ups[i].c.Stats()
		t.upMsgs += e.ups[i].msgs.Load()
		t.upBytes += e.ups[i].bytes.Load()
		t.upSendNs += e.ups[i].sendNs.Load()
	}
	return t
}

// quiescent reports whether every transport counter balances: both networks
// conserve (Sent == Delivered + Dropped + Rejected + LostInFlight) and both
// clients have sent or dropped everything they enqueued.
func (t transport) quiescent() error {
	for i, n := range t.nets {
		if !n.Conserved() {
			return fmt.Errorf("network %s counters not conserved: %+v", locName(i), n)
		}
		c := t.clients[i]
		if c.Enqueued != c.Sent+c.Dropped {
			return fmt.Errorf("uplink from %s: enqueued %d != sent %d + dropped %d", locName(i), c.Enqueued, c.Sent, c.Dropped)
		}
	}
	return nil
}

func locName(i int) string { return string(rune('A' + i)) }

// otherLoc is the location inst is not at.
func (e *env) otherLoc(inst string) string {
	if e.dep.LocationOf(inst) == "A" {
		return "B"
	}
	return "A"
}

// drain waits up to d for the deployment to go idle: transport counters
// balanced and no junction body mid-run (every scheduling that passed its
// guard has fired or failed). Closing a system while a back-end is still
// sending its reply to an already-stopped front would stall that body until
// its ack timeout.
func (e *env) drain(d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		err := e.transport().quiescent()
		if err == nil {
			err = busy(e.sys)
		}
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// busy reports a junction whose body is running.
func busy(sys *csr.System) error {
	for _, j := range sys.Metrics().Junctions {
		if j.Schedulings != j.Fires+j.Errors {
			return fmt.Errorf("junction %s busy: %d schedulings, %d fires, %d errors", j.Junction, j.Schedulings, j.Fires, j.Errors)
		}
	}
	return nil
}

// settle waits up to d for the transport counters to balance, returning the
// last imbalance when they never do.
func (e *env) settle(d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		err := e.transport().quiescent()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}
