package patterns

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
	"csaw/internal/runtime"
)

// The interpreter-vs-plan equivalence suite: every catalogue architecture is
// run twice — once on the compiled execution plan (the default) and once on
// the retained tree-walking interpreter (Options.DisableCompiledPlan) — with
// the same deterministic workload, and the quiescent KV state of every
// junction must be identical. This is the contract that lets exec.go stay the
// executable semantic reference for compiled.go.

// driveEntry applies the per-pattern deterministic workload. Every drive is
// written so the externally observable state at quiescence does not depend on
// scheduling interleavings.
func driveEntry(ctx context.Context, t *testing.T, name string, sys *runtime.System) {
	t.Helper()
	switch name {
	case "snapshot":
		for i := 0; i < 3; i++ {
			if err := sys.Invoke(ctx, ActInstance, SnapshotJunction); err != nil {
				t.Fatalf("invoke %d: %v", i, err)
			}
		}
	case "sharding":
		for i := 0; i < 3; i++ {
			if err := sys.Invoke(ctx, FrontInstance, ShardJunction); err != nil {
				t.Fatalf("invoke %d: %v", i, err)
			}
		}
	case "parallel-sharding":
		for i := 0; i < 2; i++ {
			if err := sys.Invoke(ctx, FrontInstance, ShardJunction); err != nil {
				t.Fatalf("invoke %d: %v", i, err)
			}
		}
	case "caching":
		for i := 0; i < 2; i++ {
			if err := sys.Invoke(ctx, CacheInstance, CacheJunction); err != nil {
				t.Fatalf("invoke %d: %v", i, err)
			}
		}
	case "failover":
		waitRegistered(t, sys, 2, 10*time.Second)
		jc, err := sys.Junction(FrontEnd, FrontClientJunction)
		if err != nil {
			t.Fatal(err)
		}
		jc.InjectProp("Req", true)
		var lastErr error
		for attempt := 0; attempt < 10; attempt++ {
			if lastErr = sys.InvokeWhenReady(ctx, FrontEnd, FrontClientJunction); lastErr == nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("failover request never served: %v", lastErr)
	case "watched-failover":
		if err := sys.InvokeWhenReady(ctx, WatchedFront, WatchedJunction); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no drive defined for catalogue entry %q", name)
	}
}

// fingerprint renders the complete externally observable KV state of the
// system. Pending queues are drained first: the local-priority rule leaves a
// junction free to apply a queued remote update at its *next* scheduling, so
// how much of the queue has been absorbed at quiescence is a legitimate
// timing artifact, not a semantic difference — the comparison point is the
// table state with all delivered updates applied.
func fingerprint(sys *runtime.System) string {
	var b strings.Builder
	p := sys.Program()
	for _, inst := range p.InstanceNames() {
		tt := p.Types[p.Instances[inst]]
		jnames := make([]string, 0, len(tt.Junctions))
		for jn := range tt.Junctions {
			jnames = append(jnames, jn)
		}
		sort.Strings(jnames)
		for _, jn := range jnames {
			j, err := sys.Junction(inst, jn)
			if err != nil {
				fmt.Fprintf(&b, "%s::%s: down\n", inst, jn)
				continue
			}
			tb := j.Table()
			tb.ApplyPending()
			fmt.Fprintf(&b, "%s::%s:", inst, jn)
			for _, pn := range tb.PropNames() {
				v, _ := tb.Prop(pn)
				fmt.Fprintf(&b, " %s=%t", pn, v)
			}
			for _, dn := range tb.DataNames() {
				if !tb.Defined(dn) {
					fmt.Fprintf(&b, " %s=undef", dn)
					continue
				}
				d, _ := tb.Data(dn)
				fmt.Fprintf(&b, " %s=%x", dn, d)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// quiesce drains and fingerprints the system until the state is stable
// across consecutive samples. Draining a queue can itself unblock a guarded
// junction, so stability is a fixpoint, not a single read.
func quiesce(t *testing.T, sys *runtime.System) string {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	prev := fingerprint(sys)
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(40 * time.Millisecond)
		cur := fingerprint(sys)
		if cur == prev {
			stable++
			if stable >= 3 {
				return cur
			}
		} else {
			stable = 0
			prev = cur
		}
	}
	t.Fatal("system never quiesced")
	return ""
}

// driverErrorJunctions reports which junctions recorded driver failures —
// the equivalence claim is about *classes* of behaviour, so only the set of
// failing junctions is compared, not message text or counts.
func driverErrorJunctions(sys *runtime.System) []string {
	log, _ := sys.DriverErrors()
	set := map[string]bool{}
	for _, de := range log {
		set[de.Junction] = true
	}
	out := make([]string, 0, len(set))
	for fq := range set {
		out = append(out, fq)
	}
	sort.Strings(out)
	return out
}

type equivResult struct {
	state   string
	drivers []string
	sent    uint64
}

func runEntryOnce(t *testing.T, entry CatalogueEntry, interpreted bool) equivResult {
	t.Helper()
	// Tracing stays on through the whole suite: equivalence must hold with
	// the observability layer active, and the sink absorbs both paths'
	// event streams without influencing them.
	sys := startSystem(t, entry.Build(), runtime.Options{
		DisableCompiledPlan: interpreted,
		Trace:               obsv.NewRingSink(8192),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	driveEntry(ctx, t, entry.Name, sys)
	state := quiesce(t, sys)
	return equivResult{
		state:   state,
		drivers: driverErrorJunctions(sys),
		sent:    sys.TransportStats().Sent,
	}
}

// deterministicTransport lists entries whose drive produces an exact,
// schedule-independent message count; for these the transport totals must
// match across modes too. The failover entries retry and re-register on
// timing, so only message conservation is checked there (via quiescence).
var deterministicTransport = map[string]bool{
	"snapshot":          true,
	"sharding":          true,
	"parallel-sharding": true,
	"caching":           true,
}

func TestInterpreterPlanEquivalence(t *testing.T) {
	for _, entry := range Catalogue() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			t.Parallel()
			compiled := runEntryOnce(t, entry, false)
			interp := runEntryOnce(t, entry, true)

			if compiled.state != interp.state {
				t.Errorf("quiescent KV state diverges between compiled plan and interpreter:\n--- compiled ---\n%s--- interpreter ---\n%s", compiled.state, interp.state)
			}
			if strings.Join(compiled.drivers, ",") != strings.Join(interp.drivers, ",") {
				t.Errorf("driver-error junctions diverge: compiled=%v interpreter=%v", compiled.drivers, interp.drivers)
			}
			if deterministicTransport[entry.Name] && compiled.sent != interp.sent {
				t.Errorf("transport sent counts diverge: compiled=%d interpreter=%d", compiled.sent, interp.sent)
			}
		})
	}
}

// TestEquivalenceUnderLocalPriorityAblation re-runs the equivalence check
// with the local-priority rule disabled, pinning down that the keyed
// subscription machinery and the ApplyNow delivery path compose: the two
// ablation axes are independent.
func TestEquivalenceUnderLocalPriorityAblation(t *testing.T) {
	entry, ok := CatalogueEntryByName("sharding")
	if !ok {
		t.Fatal("sharding entry missing")
	}
	run := func(interpreted bool) string {
		sys := startSystem(t, entry.Build(), runtime.Options{
			DisableCompiledPlan:  interpreted,
			DisableLocalPriority: true,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sys.RunMain(ctx); err != nil {
			t.Fatal(err)
		}
		driveEntry(ctx, t, entry.Name, sys)
		return quiesce(t, sys)
	}
	if c, i := run(false), run(true); c != i {
		t.Errorf("ablated equivalence diverges:\n--- compiled ---\n%s--- interpreter ---\n%s", c, i)
	}
}

// TestKitchenSinkEquivalence drives a synthetic program that concentrates
// the statement forms whose compiled closures were hand-mirrored from
// exec.go — case with break/next/reconsider, nested scope/txn rollback,
// verify, keep, if/else, par, idx assignment, and a par of remote updates
// (one send group on the compiled path) to a second instance — through both
// execution modes.
func TestKitchenSinkEquivalence(t *testing.T) {
	build := func() *dsl.Program {
		p := dsl.NewProgram()
		p.Type("T").Junction("j", dsl.Def(
			dsl.Decls(
				dsl.InitProp{Name: "A", Init: false},
				dsl.InitProp{Name: "B", Init: false},
				dsl.InitProp{Name: "C", Init: false},
				dsl.InitProp{Name: "D", Init: false},
				dsl.InitProp{Name: "P[x]", Init: false},
				dsl.InitProp{Name: "P[y]", Init: false},
				dsl.DeclSet{Name: "S", Elems: []string{"x", "y"}},
				dsl.DeclIdx{Name: "cur", Of: "S"},
				dsl.InitData{Name: "n"},
			),
			dsl.Assert{Prop: dsl.PR("A")},
			dsl.If{
				Cond: formula.P("A"),
				Then: dsl.Assert{Prop: dsl.PR("B")},
				Else: dsl.Assert{Prop: dsl.PR("D")},
			},
			dsl.IdxAssign{Idx: "cur", Elem: "y"},
			dsl.Assert{Prop: dsl.PRIdx("P", "cur")},
			dsl.Case{
				Arms: []dsl.CaseArm{
					dsl.Arm(formula.P("D"), dsl.TermBreak, dsl.Retract{Prop: dsl.PR("D")}),
					dsl.Arm(formula.P("B"), dsl.TermNext, dsl.Retract{Prop: dsl.PR("B")}, dsl.Assert{Prop: dsl.PR("C")}),
					dsl.Arm(formula.P("C"), dsl.TermBreak, dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) {
						return []byte("sunk"), nil
					}}),
				},
				Otherwise: []dsl.Expr{dsl.Skip{}},
			},
			// Failed transaction: the rollback must erase exactly its own
			// writes (D, and nothing else) regardless of execution mode.
			dsl.Otherwise{
				Try: dsl.Txn{Body: []dsl.Expr{
					dsl.Assert{Prop: dsl.PR("D")},
					dsl.Verify{Cond: formula.P("B")}, // B was retracted: fails
				}},
				Handler: dsl.Skip{},
			},
			dsl.Verify{Cond: formula.Not(formula.P("D"))},
			dsl.Keep{Props: []string{"A"}},
			dsl.Par{
				dsl.Assert{Prop: dsl.PRAt("P", "x")},
				dsl.Retract{Prop: dsl.PR("A")},
			},
			dsl.Par{
				dsl.Assert{Target: dsl.J("k", "j"), Prop: dsl.PR("R1")},
				dsl.Retract{Target: dsl.J("k", "j"), Prop: dsl.PR("R2")},
				dsl.Write{Data: "n", To: dsl.J("k", "j")},
			},
		))
		p.Type("K").Junction("j", dsl.Def(
			dsl.Decls(
				dsl.InitProp{Name: "R1", Init: false},
				dsl.InitProp{Name: "R2", Init: true},
				dsl.InitData{Name: "n"},
			),
			dsl.Skip{},
		))
		p.Instance("i", "T").Instance("k", "K")
		p.SetMain(dsl.Par{dsl.Start{Instance: "i"}, dsl.Start{Instance: "k"}})
		return p
	}
	run := func(interpreted bool) string {
		sys := startSystem(t, build(), runtime.Options{DisableCompiledPlan: interpreted})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sys.RunMain(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := sys.Invoke(ctx, "i", "j"); err != nil {
				t.Fatalf("invoke %d: %v", i, err)
			}
		}
		return quiesce(t, sys)
	}
	c, i := run(false), run(true)
	if c != i {
		t.Errorf("kitchen-sink state diverges:\n--- compiled ---\n%s--- interpreter ---\n%s", c, i)
	}
	if !strings.Contains(c, "C=true") || !strings.Contains(c, "n=73756e6b") {
		t.Errorf("kitchen-sink did not reach the expected final state:\n%s", c)
	}
	if !strings.Contains(c, "k::j: R1=true R2=false n=73756e6b\n") {
		t.Errorf("kitchen-sink remote par did not reach k::j:\n%s", c)
	}
}
