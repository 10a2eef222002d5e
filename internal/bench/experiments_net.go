package bench

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/runtime"
)

// NetBatching measures the remote-update plane itself: many source
// junctions on "machine A" firing par-arm asserts at one sink junction on
// "machine B" over a real TCP bridge, with configurable one-way link
// latency injected on B's substrate (so an update pays one hop in and its
// ack one hop out — RTT = 2x the per-hop figure).
//
// The series plots acknowledged updates per second against RTT for the
// pipelined plane (per-pair ack windows, cumulative acks, batch frames on
// the wire, batch KV application); the notes carry the p99
// statement-completion (send-to-ack) latency and the wire-level batch shape
// (batches sent, mean messages per batch).
func NetBatching(cfg Config) (Result, error) {
	cfg.fill()
	const (
		nSrc     = 16 // source junction instances on machine A
		parWidth = 96 // concurrent asserts per invocation (par arms)
	)
	// Per-trial wall-clock budget, derived from the experiment length and
	// clamped so the CI smoke run stays fast and the full run stays stable.
	trialDur := time.Duration(cfg.Ticks) * cfg.Tick / 2
	if trialDur < 200*time.Millisecond {
		trialDur = 200 * time.Millisecond
	}
	if trialDur > 1500*time.Millisecond {
		trialDur = 1500 * time.Millisecond
	}
	// Single-machine wall-clock trials of a saturated closed loop are noisy
	// (scheduler and GC luck decide when queues oscillate), so each point is
	// the median of several trials; long runs take 5, the CI smoke run 3.
	trials := 3
	if trialDur >= time.Second {
		trials = 5
	}
	// One-way hop latencies; 1ms is the headline point (a 1ms-latency link,
	// 2ms RTT).
	hops := []time.Duration{0, 500 * time.Microsecond, time.Millisecond}

	series := Series{Name: "pipelined+batched"}
	var notes []string
	for _, hop := range hops {
		var ts []netTrialStats
		for i := 0; i < trials; i++ {
			st, err := netBatchingTrial(cfg, hop, trialDur, nSrc, parWidth)
			if err != nil {
				return Result{}, fmt.Errorf("trial (hop %s): %w", hop, err)
			}
			ts = append(ts, st)
		}
		m := medianTrial(ts)
		series.X = append(series.X, float64(hop.Microseconds())/1000) // link latency, ms
		series.Y = append(series.Y, m.updatesPerSec)
		notes = append(notes, fmt.Sprintf(
			"link=%s (rtt %s): %.0f upd/s (p99 ack %s, %.1f msgs/batch over %d batches; median of %d trials)",
			hop, 2*hop, m.updatesPerSec, m.p99Ack, m.meanBatch, m.batches, trials))
	}

	return Result{
		ID:      "Net-batching",
		Caption: fmt.Sprintf("Remote-update throughput over TCP on the pipelined plane (%d sources x %d par arms, median of %d %s trials)", nSrc, parWidth, trials, trialDur),
		XLabel:  "one-way link latency (ms)",
		YLabel:  "acknowledged updates/sec",
		Series:  []Series{series},
		Notes:   notes,
	}, nil
}

// medianTrial picks the median-throughput trial, so the reported p99 and
// batch shape belong to an actually-observed run rather than a blend.
func medianTrial(ts []netTrialStats) netTrialStats {
	sorted := append([]netTrialStats(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].updatesPerSec < sorted[j].updatesPerSec })
	return sorted[len(sorted)/2]
}

// netTrialStats is one trial's measurement at one latency point.
type netTrialStats struct {
	updatesPerSec float64
	p99Ack        time.Duration
	batches       uint64
	meanBatch     float64
}

// netBatchingTrial stands up the two-machine deployment, drives it for dur,
// and tears it down.
func netBatchingTrial(cfg Config, hop, dur time.Duration, nSrc, parWidth int) (netTrialStats, error) {
	// Machine A: the sources. Each invocation of a "push" junction asserts
	// the sink's proposition parWidth times in parallel — parWidth
	// pipelined remote updates per invocation, each completing only at its
	// delivery acknowledgment.
	// Both machines share one program text (the Fig. 3 deployment idiom):
	// each machine starts only the instances it hosts and bridges the rest.
	// The sink's guard is never true, so arriving updates queue under the
	// local-priority rule and the trial measures the remote plane, not sink
	// scheduling.
	build := func() *dsl.Program {
		p := dsl.NewProgram()
		arms := make(dsl.Par, parWidth)
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
	progA, progB := build(), build()

	netA := compart.NewNetwork(cfg.Seed)
	defer netA.Close()
	netB := compart.NewNetwork(cfg.Seed + 1)
	defer netB.Close()
	// The injected latency lives on B's substrate: a delivered update pays
	// it once on injection, its ack pays it again on the way out.
	netB.SetDefaultLink(compart.LinkConfig{Latency: hop})

	tweak := func(n *compart.Network) func(*runtime.Options) {
		return func(o *runtime.Options) {
			o.Net = n
			o.AckTimeout = 10 * time.Second
			o.Metrics = true // the p99 ack latency comes from the Ack histogram
		}
	}
	sysA, err := newSystemWith(progA, tweak(netA))
	if err != nil {
		return netTrialStats{}, err
	}
	defer sysA.Close()
	sysB, err := newSystemWith(progB, tweak(netB))
	if err != nil {
		return netTrialStats{}, err
	}
	defer sysB.Close()

	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return netTrialStats{}, err
	}
	srvA := compart.ServeTCP(netA, lA)
	defer srvA.Close()
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return netTrialStats{}, err
	}
	srvB := compart.ServeTCP(netB, lB)
	defer srvB.Close()

	ccfg := compart.ClientConfig{QueueSize: 4096}
	toB, err := compart.DialTCPConfig(srvB.Addr().String(), ccfg)
	if err != nil {
		return netTrialStats{}, err
	}
	defer toB.Close()
	toA, err := compart.DialTCPConfig(srvA.Addr().String(), ccfg)
	if err != nil {
		return netTrialStats{}, err
	}
	defer toA.Close()

	for i := 0; i < nSrc; i++ {
		if err := sysA.StartInstance(fmt.Sprintf("s%d", i), nil); err != nil {
			return netTrialStats{}, err
		}
	}
	if err := sysB.StartInstance("sink", nil); err != nil {
		return netTrialStats{}, err
	}
	compart.Bridge(netA, "sink::main", toB)
	for i := 0; i < nSrc; i++ {
		compart.Bridge(netB, fmt.Sprintf("s%d::push", i), toA)
	}

	// Drive: one invoker per source, counting acknowledged updates.
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var acked atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < nSrc; i++ {
		name := fmt.Sprintf("s%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := sysA.Invoke(ctx, name, "push"); err != nil {
					return // deadline mid-flight, or a real failure: stop
				}
				acked.Add(uint64(parWidth))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Let queued frames and delayed in-flight deliveries settle before the
	// counters are read and conservation is checked.
	time.Sleep(4*hop + 100*time.Millisecond)

	st := netTrialStats{
		updatesPerSec: float64(acked.Load()) / elapsed.Seconds(),
	}
	// p99 statement-completion latency: the worst per-source-junction p99
	// (the Ack histograms are per junction and cannot be merged exactly).
	for _, js := range sysA.Metrics().Junctions {
		if js.AckLatency.Count > 0 && js.AckLatency.P99 > st.p99Ack {
			st.p99Ack = js.AckLatency.P99
		}
	}
	cs := toB.Stats()
	st.batches = cs.BatchesSent
	st.meanBatch = cs.MsgsPerBatch.Mean()
	if !netA.Stats().Conserved() || !netB.Stats().Conserved() {
		return netTrialStats{}, fmt.Errorf("transport counters not conserved: A %+v B %+v", netA.Stats(), netB.Stats())
	}
	return st, nil
}
