package main

import (
	"sync"
	"time"

	"csaw/internal/obsv"
)

// Boundaries of one op. Each is stamped either from an obsv event or from
// the benchmark's own host hooks.
const (
	bInvoke       = iota // Invoke called
	bSchedStart          // sched.start on the root junction
	bCaptureEnd          // the front's request-capture hook returned
	bBackQueued          // the front's assert of Work queued at the back
	bHandleStart         // the back's handler hook entered
	bHandleEnd           // the back's handler hook returned
	bReplyQueued         // the back's retract of Work queued at the root
	bWaitArmed           // wait.armed on the root (its own sends acked)
	bWaitAdmitted        // wait.admitted on the root
	bSchedFire           // sched.fire on the root
	bReturn              // Invoke returned
	nBounds
)

// spanDef is one named span of an op: the interval between two boundaries.
// Spans whose parent is "op" or another span partition the op along its
// critical path; an overlap span (parent "") runs beside that path and
// covers nothing.
type spanDef struct {
	name     string
	parent   string
	from, to int
}

// spanPlan is a workload's span layout: chain lists the critical-path
// boundaries in the order they must occur.
type spanPlan struct {
	chain []int
	spans []spanDef
}

// requestSpans partitions a front/back request round (sharding and
// snapshot share the shape). The back starts as soon as the front's assert
// of Work reaches it, while the front still waits for its own acks, so the
// critical path runs through the back; front.acked (the front's write and
// assert up to their acks) overlaps it.
var requestSpans = spanPlan{
	chain: []int{bInvoke, bSchedStart, bCaptureEnd, bBackQueued, bHandleStart, bHandleEnd,
		bReplyQueued, bWaitAdmitted, bSchedFire, bReturn},
	spans: []spanDef{
		{"front.queue", "op", bInvoke, bSchedStart},
		{"front.host", "op", bSchedStart, bCaptureEnd},
		{"front.send", "op", bCaptureEnd, bBackQueued},
		{"wait", "op", bBackQueued, bWaitAdmitted},
		{"back.wake", "wait", bBackQueued, bHandleStart},
		{"back.host", "wait", bHandleStart, bHandleEnd},
		{"back.send", "wait", bHandleEnd, bReplyQueued},
		{"front.wake", "wait", bReplyQueued, bWaitAdmitted},
		{"front.deliver", "op", bWaitAdmitted, bSchedFire},
		{"front.exit", "op", bSchedFire, bReturn},
		{"front.acked", "", bCaptureEnd, bWaitArmed},
	},
}

// fanoutSpans partitions a fan-out invocation: its body is the par of
// acknowledged remote asserts.
var fanoutSpans = spanPlan{
	chain: []int{bInvoke, bSchedStart, bSchedFire, bReturn},
	spans: []spanDef{
		{"front.queue", "op", bInvoke, bSchedStart},
		{"front.send", "op", bSchedStart, bSchedFire},
		{"front.exit", "op", bSchedFire, bReturn},
	},
}

// hookKind names a host-hook timing the benchmark takes itself.
type hookKind int

const (
	hookEncode hookKind = iota
	hookDecode
	hookRedisGet
	hookRedisSet
	hookRedisSnapshot
	nHooks
)

// junctionCounts are one junction's guard evaluations and fires.
type junctionCounts struct{ evals, fires uint64 }

// migRec is one migration reconstructed from migrate.* events.
type migRec struct {
	quiesced, cutover time.Time
	quiesce, blackout time.Duration
	bytes             int64
}

// recorder is the traced run's obsv.Sink. It stitches each op's boundary
// events into spans and aggregates per-layer counts and latencies in
// memory while active (the measured window); migrate.* events are kept
// whenever they arrive, since the post-window probe migrations are measured
// too.
type recorder struct {
	plan     spanPlan
	spans    []spanDef
	hookRoot string // root junction the host-hook marks belong to

	mu     sync.Mutex
	active bool

	ops   map[string]*[nBounds]time.Time // in-flight op per root junction
	roots map[string]bool

	counts      [256]uint64 // events per obsv.Kind while active
	perJunction map[string]*junctionCounts

	ack, applyLag, bodyFront, bodyBack, wait []float64 // ns samples

	fifo    map[string][]time.Time // queued-at of pending remote updates
	waiting map[string]bool

	batchMsgs uint64 // updates carried by remote.batch groups

	// Span samples (ns), one slice per span; opNs is each stitched op's
	// whole latency and leafNs the part covered by known leaf spans.
	spanNs [][]float64
	selfNs [][]float64
	opNs   []float64
	leafNs []float64

	hookNs    [nHooks]int64
	hookSamp  [nHooks][]float64
	hookBytes uint64

	migs   []migRec
	aborts int
}

func newRecorder(plan spanPlan) *recorder {
	spans := plan.spans
	return &recorder{
		plan:        plan,
		spans:       spans,
		ops:         map[string]*[nBounds]time.Time{},
		roots:       map[string]bool{},
		perJunction: map[string]*junctionCounts{},
		fifo:        map[string][]time.Time{},
		waiting:     map[string]bool{},
		spanNs:      make([][]float64, len(spans)),
		selfNs:      make([][]float64, len(spans)),
	}
}

// setRoots names the junctions the clients invoke; with a single root the
// host-hook marks belong to its ops.
func (r *recorder) setRoots(roots []rootRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rt := range roots {
		r.roots[rt.fq()] = true
	}
	if len(roots) == 1 {
		r.hookRoot = roots[0].fq()
	}
}

func (r *recorder) setActive(on bool) {
	r.mu.Lock()
	r.active = on
	r.mu.Unlock()
}

// now returns the current time when recording is possible, so untraced
// runs (nil recorder) never read the clock in their hooks.
func (r *recorder) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// opBegin starts stitching an op on root.
func (r *recorder) opBegin(root string, t time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	b := new([nBounds]time.Time)
	b[bInvoke] = t
	r.ops[root] = b
	r.mu.Unlock()
}

// opEnd closes the op on root and, while active, folds its spans in.
func (r *recorder) opEnd(root string, t time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.ops[root]
	r.ops[root] = nil
	if b == nil || !r.active {
		return
	}
	b[bReturn] = t
	r.foldLocked(b)
}

// foldLocked turns one op's boundaries into span samples. A critical-path
// boundary is known when it was stamped and is not earlier than the last
// known one before it; a span counts only when both of its boundaries are
// known, so known leaves never overlap and what they leave uncovered is the
// op's unattributed time.
func (r *recorder) foldLocked(b *[nBounds]time.Time) {
	var known [nBounds]bool
	last := b[bInvoke]
	for _, i := range r.plan.chain {
		if !b[i].IsZero() && !b[i].Before(last) && !b[i].After(b[bReturn]) {
			known[i] = true
			last = b[i]
		}
	}
	dur := make([]float64, len(r.spans))
	ok := make([]bool, len(r.spans))
	for i, s := range r.spans {
		if s.parent == "" {
			ok[i] = !b[s.from].IsZero() && !b[s.to].Before(b[s.from])
		} else {
			ok[i] = known[s.from] && known[s.to]
		}
		if ok[i] {
			dur[i] = float64(b[s.to].Sub(b[s.from]))
		}
	}
	var leaves float64
	for i, s := range r.spans {
		if !ok[i] {
			continue
		}
		children, hasChildren := 0.0, false
		for j, c := range r.spans {
			if c.parent == s.name {
				hasChildren = true
				if ok[j] {
					children += dur[j]
				}
			}
		}
		r.spanNs[i] = append(r.spanNs[i], dur[i])
		r.selfNs[i] = append(r.selfNs[i], dur[i]-children)
		if !hasChildren && s.parent != "" {
			leaves += dur[i]
		}
	}
	r.opNs = append(r.opNs, float64(b[bReturn].Sub(b[bInvoke])))
	r.leafNs = append(r.leafNs, leaves)
}

// mark stamps a hook boundary on the hook root's in-flight op.
func (r *recorder) mark(bound int, t time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if b := r.ops[r.hookRoot]; b != nil && b[bound].IsZero() {
		b[bound] = t
	}
	r.mu.Unlock()
}

// hook records one host-hook call that started at t0.
func (r *recorder) hook(k hookKind, t0 time.Time, bytes int) {
	if r == nil {
		return
	}
	d := time.Since(t0)
	r.mu.Lock()
	if r.active {
		r.hookNs[k] += int64(d)
		r.hookSamp[k] = append(r.hookSamp[k], float64(d))
		r.hookBytes += uint64(bytes)
	}
	r.mu.Unlock()
}

// Emit implements obsv.Sink.
func (r *recorder) Emit(e obsv.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.migrationLocked(e)
	if !r.active {
		return
	}
	r.counts[e.Kind]++
	b := r.ops[e.Junction]
	stamp := func(bound int) {
		if b != nil && b[bound].IsZero() {
			b[bound] = e.At
		}
	}
	switch e.Kind {
	case obsv.EvSchedStart:
		stamp(bSchedStart)
		delete(r.fifo, e.Junction)
	case obsv.EvGuardEval:
		r.junctionLocked(e.Junction).evals++
		// Anything still listed as pending was applied just before this
		// evaluation (or was admitted by a wait): drop it.
		delete(r.fifo, e.Junction)
	case obsv.EvSchedFire:
		r.junctionLocked(e.Junction).fires++
		if b != nil && !b[bSchedStart].IsZero() {
			stamp(bSchedFire)
		}
		if e.Dur > 0 {
			if r.roots[e.Junction] {
				r.bodyFront = append(r.bodyFront, float64(e.Dur))
			} else {
				r.bodyBack = append(r.bodyBack, float64(e.Dur))
			}
		}
	case obsv.EvWaitArmed:
		stamp(bWaitArmed)
		r.waiting[e.Junction] = true
	case obsv.EvWaitAdmitted:
		stamp(bWaitAdmitted)
		r.waiting[e.Junction] = false
		r.wait = append(r.wait, float64(e.Dur))
	case obsv.EvRemoteQueued:
		if e.Key == "Work" {
			if b != nil && !b[bCaptureEnd].IsZero() {
				stamp(bReplyQueued)
			} else if hb := r.ops[r.hookRoot]; hb != nil && e.Junction != r.hookRoot && !hb[bCaptureEnd].IsZero() && hb[bBackQueued].IsZero() {
				hb[bBackQueued] = e.At
			}
		}
		if !r.waiting[e.Junction] {
			r.fifo[e.Junction] = append(r.fifo[e.Junction], e.At)
		}
	case obsv.EvRemoteApplied:
		q := r.fifo[e.Junction]
		n := int(e.N)
		if n > len(q) {
			n = len(q)
		}
		for _, t := range q[:n] {
			r.applyLag = append(r.applyLag, float64(e.At.Sub(t)))
		}
		r.fifo[e.Junction] = q[n:]
	case obsv.EvRemoteAcked:
		if e.Dur > 0 {
			r.ack = append(r.ack, float64(e.Dur))
		}
	case obsv.EvRemoteBatch:
		r.batchMsgs += uint64(e.N)
	}
}

func (r *recorder) junctionLocked(fq string) *junctionCounts {
	c, ok := r.perJunction[fq]
	if !ok {
		c = &junctionCounts{}
		r.perJunction[fq] = c
	}
	return c
}

// migrationLocked folds migrate.* lifecycle events into migration records.
func (r *recorder) migrationLocked(e obsv.Event) {
	cur := len(r.migs) - 1
	switch e.Kind {
	case obsv.EvMigrateBegin:
		r.migs = append(r.migs, migRec{})
	case obsv.EvMigrateQuiesce:
		if cur >= 0 {
			r.migs[cur].quiesce = e.Dur
			r.migs[cur].quiesced = e.At
		}
	case obsv.EvMigrateTransfer:
		if cur >= 0 {
			r.migs[cur].bytes += e.N
		}
	case obsv.EvMigrateCutover:
		if cur >= 0 && r.migs[cur].cutover.IsZero() {
			r.migs[cur].cutover = e.At
		}
	case obsv.EvMigrateResume:
		if cur >= 0 {
			r.migs[cur].blackout = e.Dur
		}
	case obsv.EvMigrateAbort:
		r.aborts++
		if cur >= 0 {
			r.migs = r.migs[:cur]
		}
	}
}

// spanRow is one line of the span table.
type spanRow struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	SelfUs float64 `json:"self_mean_us"`
}

// spanTable summarizes the stitched spans, led by the whole op (whose self
// time is the unattributed remainder).
func (r *recorder) spanTable() []spanRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]float64, len(r.opNs))
	for i := range r.opNs {
		self[i] = r.opNs[i] - r.leafNs[i]
	}
	rows := []spanRow{{
		Name: "op", Count: len(r.opNs),
		MeanUs: mean(r.opNs) / 1e3, P50Us: median(append([]float64(nil), r.opNs...)) / 1e3,
		SelfUs: mean(self) / 1e3,
	}}
	for i, s := range r.spans {
		parent := s.parent
		if parent == "" {
			parent = "overlap"
		}
		rows = append(rows, spanRow{
			Name: s.name, Parent: parent, Count: len(r.spanNs[i]),
			MeanUs: mean(r.spanNs[i]) / 1e3,
			P50Us:  median(append([]float64(nil), r.spanNs[i]...)) / 1e3,
			SelfUs: mean(r.selfNs[i]) / 1e3,
		})
	}
	return rows
}

// unattributed is the share of total stitched op time no known leaf span
// covers.
func (r *recorder) unattributed() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var op, leaves float64
	for i := range r.opNs {
		op += r.opNs[i]
		leaves += r.leafNs[i]
	}
	return ratio(op-leaves, op)
}
