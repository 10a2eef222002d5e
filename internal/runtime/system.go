// Package runtime executes C-Saw programs: it instantiates instance types,
// owns each junction's KV table, schedules junction bodies under their
// guards, and carries assert/retract/write updates between junctions over
// the compart substrate.
//
// The execution model follows the paper: a junction's execution is scheduled
// either by application logic (Invoke) or, for guarded junctions, by the
// runtime's driver loop, which schedules the junction whenever its guard
// becomes true. Remote updates are acknowledged at delivery so that
// `otherwise[t]` gives real failure-awareness: a crashed or partitioned peer
// makes the updating statement fail.
package runtime

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/analysis"
	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/kv"
	"csaw/internal/obsv"
	"csaw/internal/plan"
)

// Options configures a System.
type Options struct {
	// Net is the substrate network. A fresh in-process network is created
	// when nil. Mutually exclusive with Deploy.
	Net *compart.Network
	// Deploy is the multi-location deployment the system runs under
	// (deploy.go): instances are placed on named locations, each backed by
	// its own network, with frames between locations carried by uplinks.
	// Nil builds an implicit single-location deployment around Net,
	// preserving the one-network behaviour unchanged.
	Deploy *Deployment
	// AckTimeout bounds how long a remote update waits for its delivery
	// acknowledgment when no otherwise[t] deadline is in force.
	AckTimeout time.Duration
	// Poll is the driver loop's fallback wake interval, needed for guards
	// that reference remote junction state.
	Poll time.Duration
	// ReconsiderLimit bounds how many times a single case expression may be
	// re-entered through reconsider within one scheduling.
	ReconsiderLimit int
	// DisableLocalPriority turns off the paper's local-priority rule
	// (ablation only: remote updates then apply immediately on arrival).
	DisableLocalPriority bool
	// DisableCompiledPlan turns off the compiled execution path (ablation
	// only): junction bodies are tree-interpreted by exec.go and drivers fall
	// back to the coalesced-notify + poll scheduling loop, reproducing the
	// pre-plan runtime. The equivalence suite runs every pattern under both
	// modes.
	DisableCompiledPlan bool
	// Trace installs a structured trace sink (internal/obsv): every
	// scheduling decision, guard evaluation, transaction outcome, wait
	// transition, remote-update hop and instance lifecycle event is emitted
	// through it. Nil (the default) disables tracing entirely — the
	// scheduling path then pays only atomic metric counters
	// (BenchmarkSchedulingObsvOff pins the cost).
	Trace obsv.Sink
	// Metrics additionally enables latency-histogram timing (time.Now
	// sampling around junction bodies) without a trace sink, so
	// System.Metrics() reports scheduling quantiles. Implied by Trace.
	Metrics bool
	// DisableDrivers suppresses the automatic driver loops of guarded
	// junctions: nothing schedules unless the application (or a replay
	// harness) calls Invoke/InvokeWhenReady explicitly. The model checker's
	// counterexample replay (internal/check) depends on this — a driver racing
	// the replayed schedule would perturb the very interleaving under test.
	DisableDrivers bool
	// Vet runs the static-analysis pass suite (internal/analysis) over the
	// program at construction time and refuses to build a system whose
	// program carries error-severity findings (unreachable junctions,
	// undeclared remote state, confirmed parallel write conflicts, ...).
	Vet bool
	// VetSuppress mutes recorded findings in strict mode, each with its
	// reason; ignored unless Vet is set.
	VetSuppress []analysis.Suppression
}

func (o *Options) fill() {
	if o.AckTimeout <= 0 {
		o.AckTimeout = time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Millisecond
	}
	if o.ReconsiderLimit <= 0 {
		o.ReconsiderLimit = 16
	}
}

// System is a running C-Saw program.
type System struct {
	prog *dsl.Program
	// net is the default location's network (kept for the single-location
	// accessors); deploy owns the full location set.
	net    *compart.Network
	deploy *Deployment
	opts   Options

	// plan is the program's static lowering, computed once at New; junctions
	// build their per-start closure compilation on top of it.
	plan *plan.Program

	// obs is the system's observability hub: always-on per-junction metric
	// counters, plus trace events and latency timing when enabled.
	obs *obsv.Observer

	mu        sync.Mutex
	instances map[string]*Instance
	apps      map[string]any
	// liveGen is a sequence lock over instance liveness: writers holding mu
	// make it odd while they start, stop or crash an instance and even
	// again after, so a guard reading several instances' liveness can tell
	// whether its reads saw one consistent state (consistentLiveness).
	liveGen atomic.Uint64

	// Ack plumbing: one window per directed (sender,receiver) junction
	// pair, acknowledged cumulatively.
	winMu   sync.Mutex
	windows map[pairKey]*ackWindow

	// driverMu guards the driver diagnostics, separate from the ack hot path.
	driverMu      sync.Mutex
	driverErrs    map[string]error
	driverLog     []DriverError
	driverDropped int

	// Live-migration state (migrate.go): migrateMu serializes migrations;
	// the staging map and ack channel implement the destination side of the
	// transfer handshake.
	migrateMu sync.Mutex
	stageMu   sync.Mutex
	staged    map[string][]byte
	migAcks   chan string

	closed atomic.Bool
}

// Instance is one running (or stopped) instance of an instance type.
type Instance struct {
	sys       *System
	Name      string
	TypeName  string
	junctions map[string]*Junction
	running   atomic.Bool
	app       any
}

// New validates the program and builds a system for it. The system starts no
// instances; call RunMain or StartInstance.
func New(p *dsl.Program, opts Options) (*System, error) {
	if err := dsl.Validate(p); err != nil {
		return nil, err
	}
	if opts.Vet {
		rep, err := analysis.Analyze(p, &analysis.Config{Suppress: opts.VetSuppress})
		if err != nil {
			return nil, err
		}
		if n := rep.Errors(); n > 0 {
			var b strings.Builder
			for _, d := range rep.Diagnostics {
				if d.Severity == analysis.SevError {
					fmt.Fprintf(&b, "\n  %s", d)
				}
			}
			return nil, fmt.Errorf("runtime: program fails vet with %d error-severity finding(s):%s", n, b.String())
		}
	}
	opts.fill()
	dep := opts.Deploy
	if dep == nil {
		net := opts.Net
		if net == nil {
			net = compart.NewNetwork(1)
		}
		dep = NewDeployment().AddLocation("local", net)
	} else if opts.Net != nil {
		return nil, errors.New("runtime: Options.Net and Options.Deploy are mutually exclusive")
	}
	s := &System{
		prog:      p,
		deploy:    dep,
		opts:      opts,
		plan:      plan.Compile(p),
		obs:       obsv.NewObserver(),
		instances: map[string]*Instance{},
		apps:      map[string]any{},
		windows:   map[pairKey]*ackWindow{},
		staged:    map[string][]byte{},
		migAcks:   make(chan string, 64),
	}
	if err := dep.bind(s); err != nil {
		return nil, err
	}
	s.net = dep.defaultLoc().net
	if opts.Trace != nil {
		s.obs.SetSink(opts.Trace)
	}
	if opts.Metrics {
		s.obs.EnableTiming(true)
	}
	return s, nil
}

// Plan exposes the program's static lowering (read-only; used by tests and
// benchmarks).
func (s *System) Plan() *plan.Program { return s.plan }

// Net exposes the default location's substrate network (for fault injection
// in tests and benchmarks). Multi-location deployments address specific
// locations through Deployment.Net.
func (s *System) Net() *compart.Network { return s.net }

// Deployment exposes the system's placement layer.
func (s *System) Deployment() *Deployment { return s.deploy }

// TransportStats returns the substrate counters summed across every
// location network (conserved: Sent == Delivered + Dropped + Rejected +
// LostInFlight at quiescence — each location conserves individually, so the
// sum does too), so fault-injection experiments can assert on observed
// transport behaviour.
func (s *System) TransportStats() compart.Stats {
	var total compart.Stats
	s.deploy.eachNet(func(n *compart.Network) {
		st := n.Stats()
		total.Sent += st.Sent
		total.Delivered += st.Delivered
		total.Dropped += st.Dropped
		total.Rejected += st.Rejected
		total.LostInFlight += st.LostInFlight
	})
	return total
}

// LinkStats returns the substrate counters for the directed link between
// two junction endpoints ("instance::junction" names), read from the
// sending junction's location network — where its Sends are counted.
func (s *System) LinkStats(from, to string) compart.LinkStats {
	loc := s.deploy.defaultLoc()
	if inst, _, ok := strings.Cut(from, "::"); ok {
		loc = s.deploy.locOf(inst)
	}
	return loc.net.LinkStats(from, to)
}

// PeerUp reports whether a junction endpoint — local or bridged from a
// remote machine — is currently up at the transport level, checked on the
// instance's current location network. For endpoints bridged with
// compart.BridgeLive this reflects remote heartbeat liveness.
func (s *System) PeerUp(instance, junction string) bool {
	return s.deploy.locOf(instance).net.Up(instance + "::" + junction)
}

// Program returns the program the system executes.
func (s *System) Program() *dsl.Program { return s.prog }

// SetApp installs the application context an instance's host blocks will see
// via HostCtx.App. Must be called before the instance starts.
func (s *System) SetApp(instance string, app any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apps[instance] = app
}

// RunMain executes the program's main body (start/stop compositions).
func (s *System) RunMain(ctx context.Context) error {
	_, err := s.execMain(ctx, dsl.Seq(s.prog.Main))
	return err
}

// execMain interprets the restricted statement forms allowed in main.
func (s *System) execMain(ctx context.Context, e dsl.Expr) (signal, error) {
	switch n := e.(type) {
	case dsl.Seq:
		for _, c := range n {
			if sig, err := s.execMain(ctx, c); err != nil || sig != sigNone {
				return sig, err
			}
		}
		return sigNone, nil
	case dsl.Par:
		var wg sync.WaitGroup
		errs := make([]error, len(n))
		for i, c := range n {
			wg.Add(1)
			go func(i int, c dsl.Expr) {
				defer wg.Done()
				_, errs[i] = s.execMain(ctx, c)
			}(i, c)
		}
		wg.Wait()
		// All branch failures matter: a parallel start composition can fail
		// several ways at once, and dropping all but the first hides them.
		if err := errors.Join(errs...); err != nil {
			return sigNone, err
		}
		return sigNone, nil
	case dsl.Start:
		return sigNone, s.StartInstance(n.Instance, n.Args)
	case dsl.Stop:
		return sigNone, s.StopInstance(n.Instance)
	case dsl.Skip:
		return sigNone, nil
	case dsl.Scope:
		return s.execMain(ctx, dsl.Seq(n.Body))
	case dsl.Otherwise:
		sub := ctx
		cancel := func() {}
		if n.Timeout > 0 {
			sub, cancel = context.WithTimeout(ctx, n.Timeout)
		}
		_, err := s.execMain(sub, n.Try)
		cancel()
		if err == nil {
			return sigNone, nil
		}
		return s.execMain(ctx, n.Handler)
	default:
		return sigNone, fmt.Errorf("runtime: statement %s not allowed in main", e)
	}
}

// StartInstance starts an instance: its junction tables are (re)initialized,
// endpoints registered, and driver loops launched for guarded junctions.
func (s *System) StartInstance(name string, args any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startLocked(name, args)
}

func (s *System) startLocked(name string, args any) error {
	tn, ok := s.prog.Instances[name]
	if !ok {
		return fmt.Errorf("runtime: unknown instance %q", name)
	}
	if inst, ok := s.instances[name]; ok && inst.running.Load() {
		return fmt.Errorf("%w: %q", ErrAlreadyStarted, name)
	}
	t := s.prog.Types[tn]
	inst := &Instance{sys: s, Name: name, TypeName: tn, junctions: map[string]*Junction{}}
	if args != nil {
		inst.app = args
	} else {
		inst.app = s.apps[name]
	}
	if s.obs.Tracing() {
		s.obs.Emit(obsv.Event{Kind: obsv.EvInstanceStart, Junction: name, Key: tn})
	}
	loc := s.deploy.locOf(name)
	for _, jn := range t.JunctionNames() {
		def := t.Junctions[jn]
		j := newJunction(s, inst, def, loc.net)
		inst.junctions[jn] = j
		s.registerEndpoints(j, loc)
		// A (re)start reinitializes the junction's KV table and opens a new
		// metrics epoch, so post-restart rates never smear across the crash.
		s.obs.ResetJunction(j.FQName)
		if s.obs.Tracing() {
			s.obs.Emit(obsv.Event{Kind: obsv.EvTableInit, Junction: j.FQName})
		}
	}
	s.liveGen.Add(1)
	inst.running.Store(true)
	s.instances[name] = inst
	s.liveGen.Add(1)
	// Junctions are started concurrently in an arbitrary order (paper §6):
	// guarded junctions get driver loops; unguarded junctions are scheduled
	// by application logic through Invoke.
	if !s.opts.DisableDrivers {
		for _, j := range inst.junctions {
			if j.def.Guard != nil && !j.def.Manual {
				j.startDriver()
			}
		}
	}
	return nil
}

// StopInstance gracefully stops a running instance: drivers stop and
// endpoints deregister. The instance may be started again later.
func (s *System) StopInstance(name string) error {
	s.mu.Lock()
	inst, ok := s.instances[name]
	if !ok || !inst.running.Load() {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotRunning, name)
	}
	s.liveGen.Add(1)
	inst.running.Store(false)
	s.liveGen.Add(1)
	for _, j := range inst.junctions {
		fq := j.FQName
		s.deploy.eachNet(func(n *compart.Network) { n.Deregister(fq) })
	}
	s.mu.Unlock()
	if s.obs.Tracing() {
		s.obs.Emit(obsv.Event{Kind: obsv.EvInstanceStop, Junction: name})
	}
	// A stop is deliberate and observable: updates in flight toward this
	// instance, and acks owed to its deregistered endpoints, can never
	// arrive, so fail both directions' windows now rather than leaving each
	// waiter to ride out the progress watchdog. This precedes stopDriver,
	// which waits for a body blocked on exactly such an ack.
	s.failWindowsOf(name)
	for _, j := range inst.junctions {
		j.stopDriver()
	}
	return nil
}

// CrashInstance simulates an abrupt failure: endpoints go down (peers get
// ErrEndpointDown / silence), drivers stop, state is lost. Unlike
// StopInstance it never errors — crashing a dead instance is a no-op.
func (s *System) CrashInstance(name string) {
	s.mu.Lock()
	inst, ok := s.instances[name]
	if !ok {
		s.mu.Unlock()
		return
	}
	s.liveGen.Add(1)
	inst.running.Store(false)
	s.liveGen.Add(1)
	tracing := s.obs.Tracing()
	if tracing {
		s.obs.Emit(obsv.Event{Kind: obsv.EvInstanceCrash, Junction: name})
	}
	for _, j := range inst.junctions {
		fq := j.FQName
		s.deploy.eachNet(func(n *compart.Network) { n.Crash(fq) })
		if tracing {
			s.obs.Emit(obsv.Event{Kind: obsv.EvEndpointDown, Junction: j.FQName})
		}
	}
	s.mu.Unlock()
	// Crashed endpoints answer new sends with ErrEndpointDown, but updates
	// already in flight would otherwise wait out the watchdog; fail their
	// windows immediately, same as StopInstance.
	s.failWindowsOf(name)
	for _, j := range inst.junctions {
		j.stopDriver()
	}
}

// failWindowsOf fails every ack window with an end at a junction of the
// named instance, which has just stopped or crashed. Windows addressed to it
// fail with ErrPeerDown: in-flight updates can never be acknowledged.
// Windows it sends on fail with ErrNotRunning: its endpoints are gone, so
// acks for its own in-flight updates cannot land. Callers clear the
// instance's running flag first; sendUpdates checks that flag under the
// window lock, so no waiter registers behind this pass. The windows survive
// (fail clears waiters but keeps the pair's sequence space), so a restarted
// instance resumes cleanly.
func (s *System) failWindowsOf(name string) {
	prefix := name + "::"
	type staleWindow struct {
		w   *ackWindow
		err error
	}
	s.winMu.Lock()
	var stale []staleWindow
	for k, w := range s.windows {
		switch {
		case strings.HasPrefix(k.to, prefix):
			stale = append(stale, staleWindow{w, fmt.Errorf("%w (%s)", ErrPeerDown, k.to)})
		case strings.HasPrefix(k.from, prefix):
			stale = append(stale, staleWindow{w, fmt.Errorf("%w: %s", ErrNotRunning, k.from)})
		}
	}
	s.winMu.Unlock()
	for _, sw := range stale {
		sw.w.fail(sw.err)
	}
}

// consistentLiveness evaluates eval against one consistent view of instance
// liveness: it re-evaluates whenever an instance started, stopped or
// crashed while eval ran (or was mid-change when it began). Without this a
// guard like ¬S(a) ∧ S(b) could read a as down before a start and b as up
// after it, and hold in no state the system was ever in. Callers must not
// hold s.mu.
func (s *System) consistentLiveness(eval func() formula.Truth) formula.Truth {
	for {
		g := s.liveGen.Load()
		if g&1 == 0 {
			t := eval()
			if s.liveGen.Load() == g {
				return t
			}
		}
		goruntime.Gosched()
	}
}

// InstanceRunning reports whether the named instance is currently running.
func (s *System) InstanceRunning(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[name]
	return ok && inst.running.Load()
}

// Junction returns a running junction by instance and junction name.
func (s *System) Junction(instance, junction string) (*Junction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[instance]
	if !ok {
		return nil, fmt.Errorf("runtime: instance %q not started", instance)
	}
	j, ok := inst.junctions[junction]
	if !ok {
		return nil, fmt.Errorf("runtime: instance %q has no junction %q", instance, junction)
	}
	return j, nil
}

// junctionQuiet is Junction without error wrapping, tolerating absence.
func (s *System) junctionQuiet(instance, junction string) *Junction {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[instance]
	if !ok {
		return nil
	}
	return inst.junctions[junction]
}

// Invoke schedules a junction once from application logic: pending updates
// are applied, the guard is checked (ErrNotSchedulable when not definitely
// true) and the body runs to completion.
// Invoke re-resolves and retries when the junction migrated between lookup
// and scheduling, so callers never observe a transient ErrMigrated.
func (s *System) Invoke(ctx context.Context, instance, junction string) error {
	for {
		j, err := s.Junction(instance, junction)
		if err != nil {
			return err
		}
		err = j.Schedule(ctx)
		if !errors.Is(err, ErrMigrated) {
			return err
		}
	}
}

// InvokeWhenReady blocks until the junction's guard is true (or ctx ends),
// then schedules it. On the compiled path it subscribes to the guard's
// read-set and wakes only when one of those keys changes — with no polling
// at all for local-only guards; the interpreter ablation keeps the seed's
// notify + poll retry loop.
func (s *System) InvokeWhenReady(ctx context.Context, instance, junction string) error {
	for {
		err := s.invokeWhenReadyOnce(ctx, instance, junction)
		if !errors.Is(err, ErrMigrated) {
			return err
		}
		// The junction migrated mid-wait: its table (and our subscription)
		// belong to the retired incarnation. Re-resolve and wait on the live
		// junction's table instead.
	}
}

func (s *System) invokeWhenReadyOnce(ctx context.Context, instance, junction string) error {
	j, err := s.Junction(instance, junction)
	if err != nil {
		return err
	}
	var sub *kv.Subscription
	if j.comp != nil && j.comp.guardRS != nil {
		// Subscribe before the first guard check so a wake racing the check
		// is retained in the subscription's buffer, never lost.
		sub = j.Table().Subscribe(j.comp.guardRS.Props, nil)
		defer j.Table().Unsubscribe(sub)
	}
	for {
		err := j.Schedule(ctx)
		if err == nil || !isNotSchedulable(err) {
			return err
		}
		switch {
		case sub != nil && j.comp.guardRS.LocalOnly():
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
			case <-sub.Ch():
			}
		case sub != nil:
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
			case <-sub.Ch():
			case <-time.After(s.opts.Poll):
			}
		default:
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
			case <-j.Table().Notify():
			case <-time.After(s.opts.Poll):
			}
		}
	}
}

func isNotSchedulable(err error) bool {
	for e := err; e != nil; {
		if e == ErrNotSchedulable {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// Close shuts the system down: all instances stop and the network closes.
func (s *System) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	insts := make([]*Instance, 0, len(s.instances))
	for _, inst := range s.instances {
		insts = append(insts, inst)
	}
	s.mu.Unlock()
	for _, inst := range insts {
		if inst.running.Load() {
			_ = s.StopInstance(inst.Name)
		}
	}
	s.deploy.eachNet(func(n *compart.Network) { n.Close() })
}

// registerEndpoints installs a junction's real handlers on its location's
// network and forwarding proxies under the same name on every other
// location, so senders always address their local network.
func (s *System) registerEndpoints(j *Junction, loc *location) {
	h, bh := j.endpointHandlers()
	loc.net.RegisterBatch(j.FQName, h, bh)
	if !s.deploy.single() {
		s.deploy.registerProxies(loc.name, j.FQName)
	}
}

// --- remote update plumbing -------------------------------------------------
//
// Updates travel as prop/data frames carrying their per-pair seq in the
// frame header (Message.Seq) and, for a write, the sender table's stored
// slice as payload; acks return as KindControl "ack" frames. Each directed
// (sender,receiver) junction pair owns an ackWindow carrying its own
// sequence space. Updates are issued in send groups (sendUpdates): a single
// statement is a group of one, and a par whose arms are all single remote
// updates is one group issued from one goroutine (compilePar). Each update takes its pair's next seq and queues a
// reference to its group slot in the window, in seq order; the group
// completes on one pending counter when its last slot is acknowledged or
// failed, so many updates ride the link at once behind a single wait. The
// receiver tracks the contiguous delivery frontier per sender and answers
// with cumulative acks — one ack frame (payload: 8-byte cum frontier plus
// optional 8-byte out-of-order extras) completes the prefix of the window's
// queue at or below the frontier. One batch of N updates costs one ack
// frame, not N.
//
// A statement completes only at its delivery acknowledgment — the §6
// contract `otherwise[t]` builds on.

// pairKey identifies a directed (sender,receiver) junction pair.
type pairKey struct{ from, to string }

// remoteUpdate is one assert/retract/write addressed to a remote junction,
// as issued by sendUpdates; err receives its outcome.
type remoteUpdate struct {
	to      string
	kind    compart.MessageKind
	key     string
	flag    bool
	payload []byte
	err     error
}

// sendGroup is the waiter for one group send: a slot per update and one
// pending count. Whoever completes a slot — an ack, a window failure, the
// watchdog, or the sender itself on a send error or cancellation — writes
// its outcome and decrements pending; the completion that reaches zero
// signals done. Groups are pooled: every use ends with all slots complete
// and its one done signal received, so a returned group is quiescent.
type sendGroup struct {
	pending atomic.Int64
	done    chan struct{} // cap 1: one signal per use
	slots   []groupSlot
}

// groupSlot is one update's completion state. The sender sets w, seq, timed
// and start before registering the slot in w; its completer sets err and
// acked, which the sender reads only after done.
type groupSlot struct {
	w     *ackWindow
	seq   uint64 // 0 when the update was never registered
	timed bool   // record send→ack time (tracing, or the 1-in-8 sample)
	start time.Time
	acked time.Time // ack processing time, when timed
	err   error
}

var sendGroupPool = sync.Pool{New: func() any { return &sendGroup{done: make(chan struct{}, 1)} }}

func getSendGroup(n int) *sendGroup {
	g := sendGroupPool.Get().(*sendGroup)
	if cap(g.slots) < n {
		g.slots = make([]groupSlot, n)
	} else {
		g.slots = g.slots[:n]
		clear(g.slots)
	}
	g.pending.Store(int64(n))
	return g
}

// complete records slot i's outcome (at is its ack processing time, zero
// unless acked and timed). The caller has exclusive ownership of the slot:
// it removed the slot from its window, or the slot was never registered.
// Completers may hold a window lock: the send on done cannot block, since it
// happens once per use into an empty cap-1 channel.
func (g *sendGroup) complete(i int, err error, at time.Time) {
	sl := &g.slots[i]
	sl.err = err
	sl.acked = at
	if g.pending.Add(-1) == 0 {
		g.done <- struct{}{}
	}
}

// waiter is a window's reference to one registered group slot.
type waiter struct {
	seq uint64
	g   *sendGroup
	i   int
}

// ackWindow is the per-pair pipelining state on the sender side.
type ackWindow struct {
	// sendMu serializes sequence assignment with the substrate send, so the
	// wire order on the pair matches the sequence order — the per-pair FIFO
	// guarantee the receiver's cumulative frontier depends on.
	sendMu sync.Mutex

	// to and timeout parameterize the watchdog's failure (set at creation,
	// immutable after).
	to      string
	timeout time.Duration

	mu      sync.Mutex
	nextSeq uint64
	cum     uint64 // highest cumulatively acknowledged sequence
	// waiters[head:] are the registered slots in increasing seq order: a seq
	// is assigned and its slot appended in one critical section. A cumulative
	// ack therefore completes a prefix, at a cost proportional to what it
	// completes; extras and forget find their seq by binary search.
	waiters []waiter
	head    int
	// Watchdog state: instead of one timer per in-flight update, the window
	// runs a single progress watchdog while waiters exist. acked counts
	// completions; if a full AckTimeout passes with waiters pending and no
	// completions, the frontier is stuck and the whole window fails. This
	// bounds the oldest unacked update by at most 2x AckTimeout while
	// keeping the per-update cost to a queue append (statement-level
	// deadlines remain the job of otherwise[t]'s context).
	timer     *time.Timer
	armed     bool
	acked     uint64
	lastAcked uint64
}

// pushLocked registers a slot whose seq was just assigned and arms the
// watchdog; callers hold w.mu. The queue's backing array is reused: live
// entries slide to the front instead of growing it.
func (w *ackWindow) pushLocked(wt waiter) {
	if len(w.waiters) == cap(w.waiters) && w.head > 0 {
		n := copy(w.waiters, w.waiters[w.head:])
		clear(w.waiters[n:])
		w.waiters = w.waiters[:n]
		w.head = 0
	}
	w.waiters = append(w.waiters, wt)
	w.armLocked()
}

// popLocked drops the first n live waiters, which the caller has completed.
func (w *ackWindow) popLocked(n int) {
	w.head += n
	if w.head == len(w.waiters) {
		clear(w.waiters) // release the group references
		w.waiters = w.waiters[:0]
		w.head = 0
	}
}

// removeLocked takes seq's waiter out of the queue, reporting whether it was
// registered.
func (w *ackWindow) removeLocked(seq uint64) (waiter, bool) {
	live := w.waiters[w.head:]
	k, ok := slices.BinarySearchFunc(live, seq, func(wt waiter, seq uint64) int { return cmp.Compare(wt.seq, seq) })
	if !ok {
		return waiter{}, false
	}
	wt := live[k]
	copy(live[k:], live[k+1:])
	live[len(live)-1] = waiter{}
	w.waiters = w.waiters[:len(w.waiters)-1]
	return wt, true
}

// failLocked completes every pending waiter with err.
func (w *ackWindow) failLocked(err error) {
	live := w.waiters[w.head:]
	for _, wt := range live {
		wt.g.complete(wt.i, err, time.Time{})
	}
	w.popLocked(len(live))
}

// armLocked (re)arms the watchdog; callers hold w.mu and have just added a
// waiter.
func (w *ackWindow) armLocked() {
	if w.armed {
		return
	}
	w.armed = true
	w.lastAcked = w.acked
	if w.timer == nil {
		w.timer = time.AfterFunc(w.timeout, w.watchdog)
	} else {
		w.timer.Reset(w.timeout)
	}
}

// watchdog runs each AckTimeout while the window has pending waiters: any
// completion since the last check counts as progress and rearms; a stalled
// frontier fails every pipelined update at once.
func (w *ackWindow) watchdog() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.waiters) == w.head {
		w.armed = false
		return
	}
	if w.acked != w.lastAcked {
		w.lastAcked = w.acked
		w.timer.Reset(w.timeout)
		return
	}
	w.armed = false
	w.failLocked(fmt.Errorf("%w: no ack from %s within %s", ErrSendFailed, w.to, w.timeout))
}

// forget removes seq's waiter, reporting whether it was still pending (false
// means an ack or window failure already completed it). On true the caller
// owns the slot and must complete it.
func (w *ackWindow) forget(seq uint64) bool {
	w.mu.Lock()
	_, ok := w.removeLocked(seq)
	w.mu.Unlock()
	return ok
}

// fail completes every pending waiter on the window with err: a peer known
// to be down (or a timed-out frontier) fails the whole pipeline at once
// instead of one AckTimeout at a time. The window itself stays usable — a
// revived peer opens where the sequence space left off.
func (w *ackWindow) fail(err error) {
	w.mu.Lock()
	w.failLocked(err)
	w.mu.Unlock()
}

// window returns (creating on first use) the ack window for a directed pair.
func (s *System) window(from, to string) *ackWindow {
	k := pairKey{from, to}
	s.winMu.Lock()
	w := s.windows[k]
	if w == nil {
		w = &ackWindow{to: to, timeout: s.opts.AckTimeout}
		s.windows[k] = w
	}
	s.winMu.Unlock()
	return w
}

// junctionWindow is the hot-path variant of window for a junction's own
// sends: windows are created once and never removed, so each junction keeps
// a lock-free read-mostly cache keyed by destination.
func (s *System) junctionWindow(j *Junction, to string) *ackWindow {
	if v, ok := j.winCache.Load(to); ok {
		return v.(*ackWindow)
	}
	w := s.window(j.FQName, to)
	j.winCache.Store(to, w)
	return w
}

// pendingAcks reports how many updates are awaiting acknowledgment on the
// directed pair (test hook: the ctx-cancel and window-failure regression
// tests assert waiters never leak).
func (s *System) pendingAcks(from, to string) int {
	s.winMu.Lock()
	w := s.windows[pairKey{from, to}]
	s.winMu.Unlock()
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.waiters) - w.head
}

// ackPair processes one cumulative/vectored ack frame on the sender side:
// every waiter with seq <= cum completes, plus the explicitly listed
// out-of-order extras. Timed slots share one clock reading, taken when the
// frame is processed.
func (s *System) ackPair(from, to string, cum uint64, extras []uint64) {
	s.winMu.Lock()
	w := s.windows[pairKey{from, to}]
	s.winMu.Unlock()
	if w == nil {
		return
	}
	var now time.Time
	ack := func(wt waiter) {
		var at time.Time
		if wt.g.slots[wt.i].timed {
			if now.IsZero() {
				now = time.Now()
			}
			at = now
		}
		wt.g.complete(wt.i, nil, at)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cum > w.cum {
		w.cum = cum
	}
	live := w.waiters[w.head:]
	n := 0
	for n < len(live) && live[n].seq <= w.cum {
		ack(live[n])
		n++
	}
	w.popLocked(n)
	for _, e := range extras {
		if wt, ok := w.removeLocked(e); ok {
			ack(wt)
			n++
		}
	}
	w.acked += uint64(n) // progress, as seen by the watchdog
}

// sendUpdates issues one group of remote updates from a junction and waits
// once for all of their delivery acknowledgments. Every update is issued:
// each takes its pair's next seq and goes to the substrate under the
// window's sendMu, so wire order is seq order. It sets each update's err and
// returns the first failure in group order. The wait respects ctx's
// deadline — when ctx ends, the still-pending updates are forgotten and fail
// with ErrTimeout — and the per-window progress watchdog bounds how long a
// stuck frontier can hold waiters (see ackWindow).
func (s *System) sendUpdates(ctx context.Context, j *Junction, ups []remoteUpdate) error {
	if len(ups) == 0 {
		return nil
	}
	tracing := s.obs.Tracing()
	timing := s.obs.Timing()
	g := getSendGroup(len(ups))
	for i := range ups {
		s.issue(j, g, i, &ups[i], timing, tracing)
	}
	select {
	case <-g.done:
	case <-ctx.Done():
		for i := range g.slots {
			sl := &g.slots[i]
			if sl.seq != 0 && sl.w.forget(sl.seq) {
				g.complete(i, fmt.Errorf("%w: awaiting ack from %s", ErrTimeout, sl.w.to), time.Time{})
			}
		}
		// The slots not forgotten were completed by an ack or a window
		// failure that raced the cancellation; their outcomes stand.
		<-g.done
	}
	var first error
	var acked uint64
	for i := range ups {
		sl := &g.slots[i]
		ups[i].err = sl.err
		if sl.err != nil {
			if first == nil {
				first = sl.err
			}
			continue
		}
		acked++
		var d time.Duration
		if sl.timed {
			d = sl.acked.Sub(sl.start)
			j.met.Ack.Observe(d)
		}
		if tracing {
			to := ups[i].to
			s.obs.Emit(obsv.Event{At: sl.acked, Kind: obsv.EvRemoteAcked, Junction: j.FQName, Key: to, Peer: to, N: int64(sl.seq), Dur: d})
		}
	}
	if acked > 0 {
		j.met.RemoteAcked.Add(acked)
	}
	sendGroupPool.Put(g)
	return first
}

// issue sends update i of group g and registers its slot in the pair's
// window. A failure to issue completes the slot at once.
func (s *System) issue(j *Junction, g *sendGroup, i int, u *remoteUpdate, timing, tracing bool) {
	w := s.junctionWindow(j, u.to)
	sl := &g.slots[i]
	sl.w = w
	w.sendMu.Lock()
	w.mu.Lock()
	if !j.inst.running.Load() {
		// Checked under w.mu: stopping an instance clears running before it
		// fails the instance's outbound windows, so a waiter is either
		// refused here or completed by that pass. Its ack could never land —
		// the sender's endpoint is already deregistered.
		w.mu.Unlock()
		w.sendMu.Unlock()
		g.complete(i, fmt.Errorf("%w: %s", ErrNotRunning, j.FQName), time.Time{})
		return
	}
	w.nextSeq++
	seq := w.nextSeq
	sl.seq = seq
	// Ack latency is sampled 1-in-8 (the histogram is a sample, not a
	// census): at pipelined rates two clock readings per update are a
	// measurable share of the send path. Tracing still times every update —
	// trace events carry their own Dur.
	sl.timed = timing && (tracing || seq&7 == 0)
	if sl.timed {
		sl.start = time.Now()
	}
	w.pushLocked(waiter{seq: seq, g: g, i: i})
	w.mu.Unlock()
	// The payload goes out uncopied: a TCP uplink encodes it before Send
	// returns, and an in-process receiver copies it (decodeUpdate), since
	// the frame is not Owned.
	err := j.net.Send(compart.Message{From: j.FQName, To: u.to, Kind: u.kind, Key: u.key, Flag: u.flag, Seq: seq, Payload: u.payload})
	w.sendMu.Unlock()
	if err == nil {
		return
	}
	if errors.Is(err, compart.ErrEndpointDown) {
		// Transport-level liveness (crash, or a BridgeLive whose heartbeats
		// went unanswered) already knows the peer is gone: fail every
		// pipelined update on this pair, this one included, fast instead of
		// waiting out one ack timeout per update.
		w.fail(fmt.Errorf("%w (%s)", ErrPeerDown, u.to))
		return
	}
	if w.forget(seq) {
		g.complete(i, fmt.Errorf("%w: %v", ErrSendFailed, err), time.Time{})
	}
}

// recvTrack is the receiver-side delivery tracking for one sending junction:
// contig is the contiguous frontier (every seq <= contig delivered), oo the
// delivered seqs above contig+1 that arrived out of order (reordering on
// jittered in-process links, or deliveries outliving a peer restart).
type recvTrack struct {
	contig uint64
	oo     map[uint64]struct{}
}

// maxRecvGap bounds the out-of-order set per sender. A gap this wide means
// the missing seqs are not coming — dropped by a lossy link, or addressed to
// a previous incarnation of this junction — and their senders have long
// failed their window, so the frontier skips forward and acking returns to
// the cheap cumulative form. (A sender ignores cum acks for seqs it is no
// longer waiting on.)
const maxRecvGap = 1024

// noteDelivered records the arrival of per-pair sequence seq from a sender
// and returns the ack to emit: the cumulative frontier, plus whether seq
// landed out of order and must be acknowledged as a vectored extra.
func (j *Junction) noteDelivered(from string, seq uint64) (cum uint64, extra bool) {
	j.recvMu.Lock()
	defer j.recvMu.Unlock()
	tr := j.recvFrom[from]
	if tr == nil {
		if j.recvFrom == nil {
			j.recvFrom = map[string]*recvTrack{}
		}
		tr = &recvTrack{}
		j.recvFrom[from] = tr
	}
	switch {
	case seq <= tr.contig:
		// Duplicate: re-acking the frontier is harmless.
	case seq == tr.contig+1:
		tr.contig = seq
		for {
			if _, ok := tr.oo[tr.contig+1]; !ok {
				break
			}
			delete(tr.oo, tr.contig+1)
			tr.contig++
		}
	default:
		if tr.oo == nil {
			tr.oo = map[uint64]struct{}{}
		}
		tr.oo[seq] = struct{}{}
		if len(tr.oo) > maxRecvGap {
			for s := range tr.oo {
				if s > tr.contig {
					tr.contig = s
				}
			}
			tr.oo = nil
			return tr.contig, false
		}
		return tr.contig, true
	}
	return tr.contig, false
}

// decodeUpdate turns a prop/data message into a KV update and its per-pair
// seq; ok is false for a message outside the runtime's sequence space (seq
// 0 is never issued). A data payload becomes the table value: an Owned one
// as it is — a TCP solo frame's read buffer, kept whole — and any other
// (in-process, or a batch member sharing its envelope) as a private copy.
func decodeUpdate(m compart.Message) (u kv.Update, seq uint64, ok bool) {
	if m.Seq == 0 {
		return kv.Update{}, 0, false
	}
	u = kv.Update{Key: m.Key, From: m.From}
	if m.Kind == compart.KindProp {
		u.Kind = kv.UpdateProp
		u.Bool = m.Flag
	} else {
		u.Kind = kv.UpdateData
		u.Data = m.Payload
		if !m.Owned {
			u.Data = append([]byte(nil), m.Payload...)
		}
	}
	return u, m.Seq, true
}

// appendAck encodes a cumulative ack payload: the 8-byte frontier followed
// by any vectored out-of-order extras.
func appendAck(cum uint64, extras []uint64) []byte {
	body := make([]byte, 8, 8+8*len(extras))
	binary.BigEndian.PutUint64(body, cum)
	for _, e := range extras {
		body = binary.BigEndian.AppendUint64(body, e)
	}
	return body
}

// decodeAck parses an appendAck payload: the cumulative frontier, then the
// vectored extras. A payload shorter than the frontier is not an ack; a
// trailing partial extra is ignored.
func decodeAck(payload []byte) (cum uint64, extras []uint64, ok bool) {
	if len(payload) < 8 {
		return 0, nil, false
	}
	cum = binary.BigEndian.Uint64(payload)
	for off := 8; off+8 <= len(payload); off += 8 {
		extras = append(extras, binary.BigEndian.Uint64(payload[off:]))
	}
	return cum, extras, true
}

// handleMessage is installed per junction endpoint; defined here because it
// needs the ack plumbing. kind KindControl with key "ack" resolves acks;
// prop/data messages enqueue a KV update and acknowledge delivery.
func (j *Junction) handleMessage(m compart.Message) {
	switch m.Kind {
	case compart.KindControl:
		if m.Key != "ack" {
			return
		}
		// The window is keyed by (this junction, acking peer).
		if cum, extras, ok := decodeAck(m.Payload); ok {
			j.sys.ackPair(j.FQName, m.From, cum, extras)
		}
	case compart.KindProp, compart.KindData:
		_, acks := j.receive([]compart.Message{m})
		j.sendAcks(acks)
	}
}

// handleBatch absorbs a delivery group — the messages of one decoded
// KindBatch envelope addressed to this junction — with one KV lock
// acquisition (kv.EnqueueBatch) and one ack frame per sender: the batched
// receive path the per-destination coalescing senders feed.
func (j *Junction) handleBatch(msgs []compart.Message) {
	n, acks := j.receive(msgs)
	if n > 0 {
		j.met.RemoteBatches.Add(1)
		if j.sys.obs.Tracing() {
			peer := ""
			if len(acks) == 1 {
				peer = acks[0].from
			}
			j.sys.obs.Emit(obsv.Event{Kind: obsv.EvRemoteBatch, Junction: j.FQName, Peer: peer, N: int64(n)})
		}
	}
	j.sendAcks(acks)
}

// pairAck is the ack a delivery group owes one sender: its cumulative
// frontier plus the seqs that landed out of order.
type pairAck struct {
	from   string
	cum    uint64
	extras []uint64
}

// receive is the per-update receive step of both delivery paths: each
// prop/data message is decoded, recorded in its sender's delivery frontier
// and traced, then the group is enqueued in one table lock acquisition (or
// applied at once under the local-priority ablation). Control frames riding
// the group take the singular path in arrival order. It returns how many
// updates were enqueued and the acks owed, one per sender in
// first-appearance order — delivery groups usually have a single origin, so
// a linear scan is cheap and keeps ack emission deterministic.
func (j *Junction) receive(msgs []compart.Message) (n int, acks []pairAck) {
	tracing := j.sys.obs.Tracing()
	updates := make([]kv.Update, 0, len(msgs))
	for _, m := range msgs {
		if m.Kind != compart.KindProp && m.Kind != compart.KindData {
			j.handleMessage(m)
			continue
		}
		u, seq, ok := decodeUpdate(m)
		if !ok {
			continue
		}
		updates = append(updates, u)
		cum, extra := j.noteDelivered(m.From, seq)
		i := 0
		for i < len(acks) && acks[i].from != m.From {
			i++
		}
		if i == len(acks) {
			acks = append(acks, pairAck{from: m.From})
		}
		acks[i].cum = cum
		if extra {
			acks[i].extras = append(acks[i].extras, seq)
		}
		if tracing {
			j.sys.obs.Emit(obsv.Event{Kind: obsv.EvRemoteQueued, Junction: j.FQName, Key: m.Key, Peer: m.From, N: int64(seq)})
		}
	}
	if len(updates) == 0 {
		return 0, nil
	}
	if j.sys.opts.DisableLocalPriority {
		for _, u := range updates {
			j.applyImmediately(u)
		}
	} else {
		j.table.EnqueueBatch(updates)
	}
	j.met.RemoteQueued.Add(uint64(len(updates)))
	return len(updates), acks
}

// sendAcks answers a delivery group with one ack frame per sender. Callers
// send only after the group is enqueued: a sender's statement must not
// complete before its update is visible to the receiving table.
func (j *Junction) sendAcks(acks []pairAck) {
	for _, pa := range acks {
		_ = j.net.Send(compart.Message{
			From: j.FQName, To: pa.from, Kind: compart.KindControl, Key: "ack", Payload: appendAck(pa.cum, pa.extras),
		})
	}
}
