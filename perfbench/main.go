// Command perfbench is the C-Saw benchmark: it runs one named workload
// against a real two-location runtime.Deployment (locations A and B, each a
// compart.Network served over loopback TCP, one uplink connection each
// way), checks every output, and prints the end-to-end metrics (-trace 0)
// or the per-layer metrics and span table of a traced run (-trace 1). The
// last line of standard output is the result object; the line before it is
// the full record with provenance and diagnostics.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload shard-kv --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"time"

	"csaw/internal/obsv"
)

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	commit       string
	root         string
	cpuprofile   string
	mutexprofile string
	blockprofile string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one workload run reports, printed as one JSON line
// before the result.
type record struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Trace      bool              `json:"trace"`
	Load       string            `json:"load"`
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]metric `json:"metrics"`
	Diag       map[string]metric `json:"diag"`
	Samples    map[string]int    `json:"samples"`
	Unmeasured map[string]string `json:"unmeasured,omitempty"`
	Spans      []spanRow         `json:"spans,omitempty"`
	Failures   []string          `json:"failures"`
	// SliceOpsPerS is the untraced window's throughput per one-second slice.
	SliceOpsPerS []float64 `json:"slice_ops_per_s,omitempty"`
	res          result
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "shard-kv", "workload to run: "+workloadNames()+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds (split between the untraced and traced halves under -trace 1)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and spans")
	flag.StringVar(&o.commit, "commit", "unknown", "commit under test, recorded in the provenance")
	flag.StringVar(&o.root, "root", ".", "repository root, hashed into the provenance")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured window to this file")
	flag.StringVar(&o.mutexprofile, "mutexprofile", "", "write a mutex contention profile of the measured window to this file")
	flag.StringVar(&o.blockprofile, "blockprofile", "", "write a goroutine blocking profile of the measured window to this file")
	flag.Parse()

	var ws []*workload
	if o.workload == "all" {
		ws = workloads
	} else if w := workloadByName(o.workload); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	profiling := o.cpuprofile != "" || o.mutexprofile != "" || o.blockprofile != ""
	if profiling && len(ws) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: profiles are taken of a single workload")
		os.Exit(2)
	}
	prof, err := startProfiles(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		rec, err := runWorkload(o, w, prof)
		if err != nil {
			prof.stop()
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		line, _ := json.Marshal(map[string]any{"record": rec})
		fmt.Println(string(line))
		if len(ws) > 1 {
			printResult(rec.res)
		}
		all.Correct = all.Correct && rec.res.Correct
		all.Attempted += rec.res.Attempted
		all.Failed += rec.res.Failed
		for k, v := range rec.res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
		if len(ws) == 1 {
			all.Metrics = rec.res.Metrics
		}
	}
	if err := prof.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printResult(all)
	if !all.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func printResult(r result) {
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// runWorkload measures one workload: untraced, or under -trace 1 an
// untraced half followed by a traced half.
func runWorkload(o options, w *workload, prof *profiles) (*record, error) {
	warmup := w.warmup
	window := time.Duration(o.seconds) * time.Second
	root, _ := filepath.Abs(o.root)
	rec := &record{
		Workload: w.name,
		Why:      w.why,
		Trace:    o.trace == 1,
		Load:     fmt.Sprintf("closed loop, %d client goroutine(s), 2 TCP connections", w.clients),
		Metrics:  map[string]metric{},
		Diag:     map[string]metric{},
		Samples:  map[string]int{},
		Failures: []string{},
	}
	if o.trace == 0 {
		rec.Provenance = newProvenance(o.commit, root, o.seed, warmup, window, setups)
		r, err := measure(o, w, setups, warmup, window, nil, prof)
		if err != nil {
			return nil, err
		}
		endToEnd(rec, r)
	} else {
		half := window / 2
		rec.Provenance = newProvenance(o.commit, root, o.seed, warmup, half, setups)
		plain, err := measure(o, w, setups, warmup, half, nil, prof)
		if err != nil {
			return nil, err
		}
		tr := newRecorder(w.spans)
		traced, err := measure(o, w, 1, warmup, half, tr, prof)
		if err != nil {
			return nil, err
		}
		perLayer(rec, plain, traced, tr)
		printSpans(w.name, rec.Spans)
	}
	return rec, nil
}

// printSpans writes the span table in text form.
func printSpans(name string, rows []spanRow) {
	fmt.Printf("spans of %s (µs; self = duration not covered by child spans; ~ = overlaps the critical path):\n", name)
	fmt.Printf("  %-16s %8s %10s %10s %10s\n", "span", "count", "mean", "p50", "self")
	for _, r := range rows {
		indent := ""
		switch r.Parent {
		case "wait":
			indent = "  "
		case "overlap":
			indent = "~ "
		}
		fmt.Printf("  %-16s %8d %10.2f %10.2f %10.2f\n", indent+r.Name, r.Count, r.MeanUs, r.P50Us, r.SelfUs)
	}
}

const (
	// setups is how many times a run sets its deployment up; setup_s is
	// their median, since a single set-up of a few milliseconds repeats
	// within a quarter at best.
	setups = 25
	// probes is how many times the post-window migration probe moves its
	// instance.
	probes = 200
)

// run is the raw outcome of one measured deployment.
type run struct {
	setups     []setupTimes
	window     phaseStats
	cpu        time.Duration
	mem0, mem1 goruntime.MemStats
	heapInuse  uint64
	sum        summary
	refRTT     float64 // ns, median of the loopback control after the window
	tr0, tr1   transport
	migLat     []float64 // ns: window migrations, or the post-window probe
	failures   []string
	goroutines int // left running after close, beyond the baseline
}

// measure sets the workload up `setups` times (keeping the last), warms
// it up, measures one window, runs the correctness checks and the
// migration probe, and tears everything down.
func measure(o options, w *workload, setups int, warmup, window time.Duration, tr *recorder, prof *profiles) (*run, error) {
	ctx := context.Background()
	base := goruntime.NumGoroutine()
	r := &run{}
	var e *env
	for i := 0; i < setups; i++ {
		var err error
		if e, err = newEnv(ctx, w, o.seed, tr); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		r.setups = append(r.setups, e.times)
		if i < setups-1 {
			if err := e.drain(2 * time.Second); err != nil {
				r.failures = append(r.failures, fmt.Sprintf("set-up %d: %v", i+1, err))
			}
			e.close()
		}
	}
	if tr != nil {
		tr.setRoots(e.arch.roots)
	}
	fail := func(format string, args ...any) { r.failures = append(r.failures, fmt.Sprintf(format, args...)) }

	warm := runPhase(ctx, e, w, warmup, 1)
	if warm.failed > 0 {
		fail("warm-up: %d op(s) failed, first: %v", warm.failed, warm.firstErr)
	}

	prof.begin()
	if tr != nil {
		tr.setActive(true)
	}
	goruntime.ReadMemStats(&r.mem0)
	r.tr0 = e.transport()
	cpu0 := cpuTime()
	r.window = runPhase(ctx, e, w, window, max(int(window/time.Second), 1))
	r.cpu = cpuTime() - cpu0
	r.tr1 = e.transport()
	goruntime.ReadMemStats(&r.mem1)
	if tr != nil {
		tr.setActive(false)
	}
	prof.end()
	// Digest the per-op samples and drop them, so the heap reading below is
	// the system's, not the benchmark's sample arrays.
	r.sum = r.window.summarize()
	r.window.lat, r.window.end = nil, nil
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	r.heapInuse = ms.HeapInuse

	if tr == nil {
		rtt, err := loopbackRTT(refDuration)
		if err != nil {
			fail("loopback control: %v", err)
		}
		r.refRTT = rtt
	}

	if r.window.failed > 0 {
		fail("window: %d op(s) failed, first: %v", r.window.failed, r.window.firstErr)
	}
	if r.window.migFailed > 0 {
		fail("window: %d migration(s) failed, first: %v", r.window.migFailed, r.window.migErr)
	}
	if err := e.settle(2 * time.Second); err != nil {
		fail("transport after window: %v", err)
	}
	if err := e.arch.check(e.sys); err != nil {
		fail("workload check: %v", err)
	}

	r.migLat = r.window.migLat
	if !w.migrating {
		r.migLat = probe(e, probes, fail)
		if err := e.settle(2 * time.Second); err != nil {
			fail("transport after migration probe: %v", err)
		}
		if _, err := e.arch.op(ctx, e.sys, 0); err != nil {
			fail("op after migration probe: %v", err)
		}
	}
	if tr != nil && tr.aborts > 0 {
		fail("%d migration(s) aborted", tr.aborts)
	}

	if err := e.drain(2 * time.Second); err != nil {
		fail("before close: %v", err)
	}
	e.close()
	r.goroutines = waitGoroutines(base, 3*time.Second)
	if r.goroutines > 0 {
		fail("%d goroutine(s) still running after close", r.goroutines)
	}
	return r, nil
}

// probe moves the arch's probe instance back and forth n times at rest and
// returns each MigrateInstance call's latency (ns).
func probe(e *env, n int, fail func(string, ...any)) []float64 {
	inst := e.arch.probe
	var lat []float64
	for i := 0; i < n; i++ {
		dest := e.otherLoc(inst)
		t := time.Now()
		if err := e.sys.MigrateInstance(inst, dest); err != nil {
			fail("probe migration %d of %s to %s: %v", i+1, inst, dest, err)
			continue
		}
		lat = append(lat, float64(time.Since(t)))
	}
	return lat
}

// waitGoroutines waits up to d for the goroutine count to fall back to
// base and returns how many remain above it.
func waitGoroutines(base int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		n := goruntime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// phaseStats is what the clients (and the migrator) observed in a phase.
type phaseStats struct {
	lat        []float64       // ns per successful op
	end        []time.Duration // when each successful op returned, from phase start
	cpuAt      []time.Duration // process CPU time at each slice boundary
	ok, failed uint64
	firstErr   error
	elapsed    time.Duration
	migLat     []float64
	migFailed  uint64
	migErr     error
}

// sliceStat is one window slice's throughput, latency and CPU cost.
type sliceStat struct{ opsPerS, p50, p90, cpuPerOp float64 }

// slices cuts the phase's ops into its slices by completion time.
func (ps phaseStats) slices() []sliceStat {
	n := len(ps.cpuAt) - 1
	if n < 1 {
		return nil
	}
	lats := make([][]float64, n)
	l := ps.elapsed / time.Duration(n)
	for i, end := range ps.end {
		k := min(int(end/l), n-1)
		lats[k] = append(lats[k], ps.lat[i])
	}
	out := make([]sliceStat, n)
	for k, xs := range lats {
		out[k] = sliceStat{
			opsPerS:  float64(len(xs)) / l.Seconds(),
			p50:      quantile(xs, 0.50),
			p90:      quantile(xs, 0.90),
			cpuPerOp: ratio(us(ps.cpuAt[k+1]-ps.cpuAt[k]), float64(len(xs))),
		}
	}
	return out
}

// summary digests a window's per-op samples. Throughput, latency
// percentiles and CPU cost are medians over the window's one-second slices,
// so a burst of outside load in one slice moves them less than it moves
// whole-window figures.
type summary struct {
	opsPerS, p50, p90, cpuPerOp float64
	p99, mean                   float64 // over the whole window
	slices                      []sliceStat
}

func (ps phaseStats) summarize() summary {
	sl := ps.slices()
	pick := func(f func(sliceStat) float64) float64 {
		xs := make([]float64, len(sl))
		for i, x := range sl {
			xs[i] = f(x)
		}
		return median(xs)
	}
	return summary{
		opsPerS:  pick(func(x sliceStat) float64 { return x.opsPerS }),
		p50:      pick(func(x sliceStat) float64 { return x.p50 }),
		p90:      pick(func(x sliceStat) float64 { return x.p90 }),
		cpuPerOp: pick(func(x sliceStat) float64 { return x.cpuPerOp }),
		p99:      quantile(ps.lat, 0.99),
		mean:     mean(ps.lat),
		slices:   sl,
	}
}

// maxFailures stops a client that keeps failing, so a broken system ends
// the phase instead of spinning.
const maxFailures = 100

// runPhase drives the workload's closed-loop clients (and, for migrating
// workloads, the migrator) for dur, cut into equal slices for the per-slice
// statistics.
func runPhase(ctx context.Context, e *env, w *workload, dur time.Duration, slices int) phaseStats {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([]phaseStats, w.clients)
	done := make(chan struct{})
	for i := range per {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			ps := &per[i]
			for time.Now().Before(deadline) && ps.failed < maxFailures {
				d, err := e.arch.op(ctx, e.sys, i)
				if err != nil {
					if ps.firstErr == nil {
						ps.firstErr = err
					}
					ps.failed++
					continue
				}
				ps.ok++
				ps.lat = append(ps.lat, float64(d))
				ps.end = append(ps.end, time.Since(start))
			}
		}(i)
	}
	// The sampler reads the process CPU time at every slice boundary.
	cpuAt := make([]time.Duration, 0, slices+1)
	cpuDone := make(chan struct{})
	go func() {
		defer close(cpuDone)
		cpuAt = append(cpuAt, cpuTime())
		for i := 1; i <= slices; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(slices))))
			cpuAt = append(cpuAt, cpuTime())
		}
	}()
	var mig phaseStats
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		if w.migrating {
			mig = migrator(e, deadline)
		}
	}()
	for range per {
		<-done
	}
	var out phaseStats
	out.elapsed = time.Since(start)
	<-migDone
	<-cpuDone
	out.cpuAt = cpuAt
	for _, ps := range per {
		out.lat = append(out.lat, ps.lat...)
		out.end = append(out.end, ps.end...)
		out.ok += ps.ok
		out.failed += ps.failed
		if out.firstErr == nil {
			out.firstErr = ps.firstErr
		}
	}
	out.migLat, out.migFailed, out.migErr = mig.migLat, mig.migFailed, mig.migErr
	return out
}

// migratePeriod is the pause between the migrate workload's migrations.
const migratePeriod = 10 * time.Millisecond

// migrator moves the arch's probe instance between A and B every
// migratePeriod until the deadline.
func migrator(e *env, deadline time.Time) phaseStats {
	var ps phaseStats
	inst := e.arch.probe
	for {
		time.Sleep(migratePeriod)
		if !time.Now().Before(deadline) {
			return ps
		}
		t := time.Now()
		if err := e.sys.MigrateInstance(inst, e.otherLoc(inst)); err != nil {
			if ps.migErr == nil {
				ps.migErr = err
			}
			ps.migFailed++
			continue
		}
		ps.migLat = append(ps.migLat, float64(time.Since(t)))
	}
}

// endToEnd fills the untraced run's metrics.
func endToEnd(rec *record, r *run) {
	var setup []float64
	for _, s := range r.setups {
		setup = append(setup, s.total.Seconds())
	}
	m := rec.Metrics
	m["setup_s"] = metric{median(setup), "s"}
	m["ops_per_s"] = metric{r.sum.opsPerS, "1/s"}
	m["op_p50_us"] = metric{r.sum.p50 / 1e3, "us"}
	m["op_p90_us"] = metric{r.sum.p90 / 1e3, "us"}
	m["cpu_us_per_op"] = metric{r.sum.cpuPerOp, "us"}
	m["heap_mb"] = metric{float64(r.heapInuse) / (1 << 20), "MiB"}

	rec.Diag["migrate_p50_us"] = metric{median(r.migLat) / 1e3, "us"}
	rec.Diag["host_ref_rtt_us"] = metric{r.refRTT / 1e3, "us"}
	rec.Diag["window_ops_per_s"] = metric{float64(r.window.ok) / r.window.elapsed.Seconds(), "1/s"}
	rec.Diag["window_cpu_us_per_op"] = metric{ratio(us(r.cpu), float64(r.window.ok)), "us"}
	rec.Diag["op_mean_us"] = metric{r.sum.mean / 1e3, "us"}
	for _, x := range r.sum.slices {
		rec.SliceOpsPerS = append(rec.SliceOpsPerS, x.opsPerS)
	}
	rec.Samples["slices"] = len(r.sum.slices)
	attempted := r.window.ok + r.window.failed
	rec.Diag["op_p99_us"] = metric{r.sum.p99 / 1e3, "us"}
	rec.Diag["ops_failed_frac"] = metric{ratio(float64(r.window.failed), float64(attempted)), "ratio"}
	rec.Diag["migrate_p90_us"] = metric{quantile(r.migLat, 0.90) / 1e3, "us"}
	rec.Samples["ops"] = int(r.window.ok)
	rec.Samples["migrations"] = len(r.migLat)
	rec.Samples["setups"] = len(r.setups)
	rec.Failures = append(rec.Failures, r.failures...)
	rec.res = result{
		Correct:   len(rec.Failures) == 0,
		Attempted: max(attempted, 1),
		Failed:    r.window.failed,
		Metrics:   m,
	}
}

// perLayer fills the traced run's metrics from the untraced half (plain),
// the traced half and its recorder.
func perLayer(rec *record, plain, traced *run, tr *recorder) {
	m := rec.Metrics
	ops := float64(traced.window.ok)
	perOp := func(n float64) float64 { return ratio(n, ops) }

	// setup: medians over the untraced half's set-ups.
	phase := func(f func(setupTimes) time.Duration) float64 {
		var xs []float64
		for _, s := range plain.setups {
			xs = append(xs, ms(f(s)))
		}
		return median(xs)
	}
	m["setup.validate_ms"] = metric{phase(func(s setupTimes) time.Duration { return s.validate }), "ms"}
	m["setup.compile_ms"] = metric{phase(func(s setupTimes) time.Duration { return s.compile }), "ms"}
	m["setup.connect_ms"] = metric{phase(func(s setupTimes) time.Duration { return s.connect }), "ms"}
	m["setup.start_ms"] = metric{phase(func(s setupTimes) time.Duration { return s.start }), "ms"}
	m["setup.preload_ms"] = metric{phase(func(s setupTimes) time.Duration { return s.preload }), "ms"}

	tr.mu.Lock()
	c := tr.counts
	var fires, evals float64
	for _, n := range tr.perJunction {
		if n.evals > 0 {
			fires += float64(n.fires)
			evals += float64(n.evals)
		}
	}
	m["runtime.sched_per_op"] = metric{perOp(float64(c[obsv.EvSchedStart])), "1/op"}
	m["runtime.not_schedulable_per_op"] = metric{perOp(float64(c[obsv.EvSchedNotSchedulable])), "1/op"}
	m["runtime.fire_frac"] = metric{ratio(fires, evals), "ratio"}
	m["runtime.invoke_to_start_us"] = metric{median(tr.spanNs[0]) / 1e3, "us"}
	m["runtime.body_front_p50_us"] = metric{median(tr.bodyFront) / 1e3, "us"}
	m["runtime.ack_p50_us"] = metric{quantile(tr.ack, 0.50) / 1e3, "us"}
	m["runtime.ack_p90_us"] = metric{quantile(tr.ack, 0.90) / 1e3, "us"}
	m["runtime.wakes_event_per_op"] = metric{perOp(float64(c[obsv.EvDriverWakeEvent])), "1/op"}
	m["runtime.wakes_poll_per_op"] = metric{perOp(float64(c[obsv.EvDriverWakePoll])), "1/op"}
	m["runtime.retries_per_op"] = metric{perOp(float64(c[obsv.EvRetry])), "1/op"}
	m["runtime.errors"] = metric{float64(c[obsv.EvSchedError]), "count"}

	var blackout, quiesce, transfer, bytes []float64
	for _, mg := range tr.migs {
		blackout = append(blackout, float64(mg.blackout))
		quiesce = append(quiesce, float64(mg.quiesce))
		if !mg.cutover.IsZero() && !mg.quiesced.IsZero() {
			transfer = append(transfer, float64(mg.cutover.Sub(mg.quiesced)))
		}
		bytes = append(bytes, float64(mg.bytes))
	}
	m["runtime.migrate.blackout_p50_us"] = metric{median(blackout) / 1e3, "us"}
	m["runtime.migrate.quiesce_p50_us"] = metric{median(quiesce) / 1e3, "us"}
	m["runtime.migrate.transfer_us"] = metric{median(transfer) / 1e3, "us"}
	m["runtime.migrate.state_bytes"] = metric{mean(bytes), "B"}
	m["runtime.migrate.aborts"] = metric{float64(tr.aborts), "count"}

	queued := float64(c[obsv.EvRemoteQueued])
	batches := float64(c[obsv.EvRemoteBatch])
	deliveries := batches + queued - float64(tr.batchMsgs)
	m["kv.apply_lag_p50_us"] = metric{median(tr.applyLag) / 1e3, "us"}
	m["kv.updates_per_delivery"] = metric{ratio(queued, deliveries), "ratio"}
	m["kv.sub_wakes_per_op"] = metric{perOp(float64(c[obsv.EvSubWake])), "1/op"}

	rec.Diag["runtime.body_back_p50_us"] = metric{median(tr.bodyBack) / 1e3, "us"}
	rec.Diag["runtime.wait_p50_us"] = metric{median(tr.wait) / 1e3, "us"}
	hookUs := func(k hookKind) float64 { return perOp(float64(tr.hookNs[k])) / 1e3 }
	rec.Diag["serial.encode_us"] = metric{hookUs(hookEncode), "us"}
	rec.Diag["serial.decode_us"] = metric{hookUs(hookDecode), "us"}
	rec.Diag["miniredis.get_us"] = metric{median(tr.hookSamp[hookRedisGet]) / 1e3, "us"}
	rec.Diag["miniredis.set_us"] = metric{median(tr.hookSamp[hookRedisSet]) / 1e3, "us"}
	rec.Diag["miniredis.snapshot_us"] = metric{median(tr.hookSamp[hookRedisSnapshot]) / 1e3, "us"}
	m["serial.bytes_per_op"] = metric{perOp(float64(tr.hookBytes)), "B/op"}

	rec.Samples["ops"] = int(traced.window.ok)
	rec.Samples["acks"] = len(tr.ack)
	rec.Samples["apply_lags"] = len(tr.applyLag)
	rec.Samples["front_bodies"] = len(tr.bodyFront)
	rec.Samples["back_bodies"] = len(tr.bodyBack)
	rec.Samples["waits"] = len(tr.wait)
	rec.Samples["migrations"] = len(tr.migs)
	rec.Samples["stitched_ops"] = len(tr.opNs)
	tr.mu.Unlock()

	d0, d1 := traced.tr0, traced.tr1
	var frames, batches2, inBatches, decodeErrs, dropped float64
	var linkN uint64
	var linkSum time.Duration
	for i := 0; i < 2; i++ {
		frames += float64(d1.srvs[i].Frames - d0.srvs[i].Frames)
		batches2 += float64(d1.srvs[i].Batches - d0.srvs[i].Batches)
		inBatches += float64(d1.srvs[i].MsgsInBatches - d0.srvs[i].MsgsInBatches)
		decodeErrs += float64(d1.srvs[i].DecodeErrors - d0.srvs[i].DecodeErrors)
		dropped += float64(d1.clients[i].Dropped - d0.clients[i].Dropped)
		n1, n0 := d1.nets[i], d0.nets[i]
		dropped += float64((n1.Dropped + n1.Rejected + n1.LostInFlight) - (n0.Dropped + n0.Rejected + n0.LostInFlight))
		linkN += d1.links[i].Count - d0.links[i].Count
		linkSum += d1.links[i].Sum - d0.links[i].Sum
	}
	upMsgs := float64(d1.upMsgs - d0.upMsgs)
	m["compart.uplink_msgs_per_op"] = metric{perOp(upMsgs), "1/op"}
	m["compart.uplink_bytes_per_op"] = metric{perOp(float64(d1.upBytes - d0.upBytes)), "B/op"}
	m["compart.uplink_send_ns"] = metric{ratio(float64(d1.upSendNs-d0.upSendNs), upMsgs), "ns"}
	m["compart.msgs_per_batch"] = metric{ratio(frames-batches2+inBatches, frames), "ratio"}
	m["compart.tcp_frames_per_op"] = metric{perOp(frames), "1/op"}
	m["compart.link_delivery_us"] = metric{ratio(us(linkSum), float64(linkN)), "us"}
	m["compart.dropped"] = metric{dropped, "count"}
	m["compart.decode_errors"] = metric{decodeErrs, "count"}

	plainOps := float64(plain.window.ok)
	m["proc.allocs_per_op"] = metric{ratio(float64(plain.mem1.Mallocs-plain.mem0.Mallocs), plainOps), "1/op"}
	m["proc.alloc_kb_per_op"] = metric{ratio(float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc)/1024, plainOps), "KiB/op"}
	m["proc.gc_per_kop"] = metric{ratio(float64(plain.mem1.NumGC-plain.mem0.NumGC)*1000, plainOps), "1/kop"}
	m["proc.goroutines_after_close"] = metric{float64(max(plain.goroutines, traced.goroutines)), "count"}

	plainRate := plainOps / plain.window.elapsed.Seconds()
	tracedRate := ops / traced.window.elapsed.Seconds()
	m["obsv.trace_overhead_frac"] = metric{1 - ratio(tracedRate, plainRate), "ratio"}
	m["trace.unattributed_frac"] = metric{tr.unattributed(), "ratio"}
	rec.Diag["ops_per_s_untraced"] = metric{plainRate, "1/s"}
	rec.Diag["ops_per_s_traced"] = metric{tracedRate, "1/s"}

	rec.Spans = tr.spanTable()
	rec.Unmeasured = map[string]string{
		"compart.pump_wait_us": "ClientStats.SendLatency is filled only by the reconnecting client; the plain TCP client behind each uplink leaves it zero, and its queue wait cannot be split from compart.uplink_send_ns without spans inside compart",
	}
	for _, s := range rec.Spans {
		if s.Count == 0 {
			rec.Unmeasured["span."+s.Name] = "no op of this workload reached both of the span's boundaries"
		}
	}

	for _, f := range plain.failures {
		rec.Failures = append(rec.Failures, "untraced half: "+f)
	}
	for _, f := range traced.failures {
		rec.Failures = append(rec.Failures, "traced half: "+f)
	}
	attempted := plain.window.ok + plain.window.failed + traced.window.ok + traced.window.failed
	rec.res = result{
		Correct:   len(rec.Failures) == 0,
		Attempted: max(attempted, 1),
		Failed:    plain.window.failed + traced.window.failed,
		Metrics:   m,
	}
}

// profiles are the optional pprof outputs. They cover the first measured
// window of the run (under -trace 1, the untraced half).
type profiles struct {
	o      options
	cpu    *os.File
	begun  bool
	active bool
}

func startProfiles(o options) (*profiles, error) {
	p := &profiles{o: o}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		p.cpu = f
	}
	return p, nil
}

// begin and end bracket a measured window.
func (p *profiles) begin() {
	if p.begun {
		return
	}
	p.begun, p.active = true, true
	if p.cpu != nil {
		_ = pprof.StartCPUProfile(p.cpu)
	}
	if p.o.mutexprofile != "" {
		goruntime.SetMutexProfileFraction(5)
	}
	if p.o.blockprofile != "" {
		goruntime.SetBlockProfileRate(int(time.Microsecond))
	}
}

func (p *profiles) end() {
	if !p.active {
		return
	}
	p.active = false
	if p.cpu != nil {
		pprof.StopCPUProfile()
	}
	goruntime.SetMutexProfileFraction(0)
	goruntime.SetBlockProfileRate(0)
}

// stop writes the mutex and block profiles and closes the CPU profile.
func (p *profiles) stop() error {
	var errs []error
	if p.cpu != nil {
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	for _, x := range []struct{ path, name string }{{p.o.mutexprofile, "mutex"}, {p.o.blockprofile, "block"}} {
		if x.path == "" {
			continue
		}
		f, err := os.Create(x.path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		errs = append(errs, pprof.Lookup(x.name).WriteTo(f, 0), f.Close())
	}
	return errors.Join(errs...)
}
