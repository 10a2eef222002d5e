package runtime

// This file is the compiled execution path: each junction's guard and body
// are lowered once, at StartInstance time, into closure evaluators and step
// slices built on the static metadata of internal/plan. The tree-walking
// interpreter in exec.go is retained as the executable semantic reference
// (the same split internal/serial keeps between codec plans and
// reflectwalk.go); Options.DisableCompiledPlan selects it, and the
// equivalence suite in plan_equiv_test.go holds the two paths to identical
// observable behaviour.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/kv"
	"csaw/internal/obsv"
	"csaw/internal/plan"
)

// step is one lowered statement: same contract as exec (control-flow signal
// plus failure), with all name/target resolution that does not depend on
// runtime idx state hoisted to compile time.
type step func(ctx context.Context) (signal, error)

// compiledJunction is a junction's lowered guard and body.
type compiledJunction struct {
	guard   func() formula.Truth // nil when unguarded
	guardRS *plan.ReadSet        // nil when unguarded
	body    []step
}

func (j *Junction) compile(pj *plan.Junction) *compiledJunction {
	c := &compiledJunction{body: j.compileBody(j.def.Body)}
	if j.def.Guard != nil {
		c.guard = j.compileFormula(j.def.Guard)
		c.guardRS = pj.Guard
	}
	return c
}

// runBody executes the junction body: the compiled plan when available, the
// reference interpreter otherwise.
func (j *Junction) runBody(ctx context.Context) (signal, error) {
	if j.comp != nil {
		return runSteps(ctx, j.comp.body)
	}
	return j.exec(ctx, dsl.Seq(j.def.Body))
}

// guardTruth evaluates the junction's guard (the caller checks for nil).
func (j *Junction) guardTruth() formula.Truth {
	if j.comp != nil && j.comp.guard != nil {
		return j.comp.guard()
	}
	return j.def.Guard.Eval(j.env())
}

// runSteps executes a flattened statement sequence with the interpreter's
// control-flow contract: the first failure or non-none signal stops the
// sequence, and an expired deadline surfaces as ErrTimeout.
func runSteps(ctx context.Context, steps []step) (signal, error) {
	for _, st := range steps {
		if err := ctx.Err(); err != nil {
			return sigNone, fmt.Errorf("%w: %v", ErrTimeout, err)
		}
		sig, err := st(ctx)
		if err != nil || sig != sigNone {
			return sig, err
		}
	}
	return sigNone, nil
}

// compileBody lowers a statement list, flattening nested Seq levels into one
// step slice.
func (j *Junction) compileBody(body []dsl.Expr) []step {
	var out []step
	for _, e := range body {
		if s, ok := e.(dsl.Seq); ok {
			out = append(out, j.compileBody(s)...)
			continue
		}
		out = append(out, j.compileExpr(e))
	}
	return out
}

func (j *Junction) compileExpr(e dsl.Expr) step {
	switch n := e.(type) {
	case dsl.Skip:
		return func(context.Context) (signal, error) { return sigNone, nil }
	case dsl.Return:
		return func(context.Context) (signal, error) { return sigReturn, nil }
	case dsl.Retry:
		return func(context.Context) (signal, error) { return sigRetry, nil }
	case dsl.Break:
		return func(context.Context) (signal, error) { return sigBreak, nil }
	case dsl.Next:
		return func(context.Context) (signal, error) { return sigNext, nil }
	case dsl.Reconsider:
		return func(context.Context) (signal, error) { return sigReconsider, nil }

	case dsl.Seq:
		steps := j.compileBody(n)
		return func(ctx context.Context) (signal, error) { return runSteps(ctx, steps) }

	case dsl.Par:
		return j.compilePar(n)

	case dsl.ParN:
		branches := make(dsl.Par, 0, n.N*len(n.Body))
		for i := 0; i < n.N; i++ {
			branches = append(branches, n.Body...)
		}
		return j.compilePar(branches)

	case dsl.Scope:
		steps := j.compileBody(n.Body)
		return func(ctx context.Context) (signal, error) {
			sig, err := runSteps(ctx, steps)
			if sig == sigReturn {
				sig = sigNone
			}
			return sig, err
		}

	case dsl.Txn:
		steps := j.compileBody(n.Body)
		ws := plan.CompileTxn(j.pj.Info, n.Body)
		snap := j.table.Snapshot
		if !ws.Full {
			props, data := ws.Props, ws.Data
			snap = func() kv.Snapshot { return j.table.SnapshotKeys(props, data) }
		}
		return func(ctx context.Context) (signal, error) {
			s := snap()
			j.noteTxn(obsv.EvTxnBegin)
			sig, err := runSteps(ctx, steps)
			if err != nil {
				j.table.Restore(s)
				j.noteTxn(obsv.EvTxnRollback)
				return sigNone, err
			}
			j.noteTxn(obsv.EvTxnCommit)
			if sig == sigReturn {
				sig = sigNone
			}
			return sig, nil
		}

	case dsl.Otherwise:
		try := j.compileExpr(n.Try)
		handler := j.compileExpr(n.Handler)
		timeout := n.Timeout
		return func(ctx context.Context) (signal, error) {
			sub := ctx
			cancel := func() {}
			if timeout > 0 {
				sub, cancel = context.WithTimeout(ctx, timeout)
			}
			sig, err := try(sub)
			cancel()
			if err == nil {
				return sig, nil
			}
			if ctx.Err() != nil {
				return sigNone, err
			}
			return handler(ctx)
		}

	case dsl.Host:
		return func(context.Context) (signal, error) {
			hc := &hostCtx{j: j, writes: n.Writes}
			if err := n.Fn(hc); err != nil {
				return sigNone, fmt.Errorf("host %s: %w", n.Label, err)
			}
			return sigNone, nil
		}

	case dsl.Save:
		return func(context.Context) (signal, error) {
			payload, err := n.From(&hostCtx{j: j, writes: []string{n.Data}})
			if err != nil {
				return sigNone, fmt.Errorf("save %s: %w", n.Data, err)
			}
			return sigNone, j.table.SetData(n.Data, payload)
		}

	case dsl.Restore:
		return func(context.Context) (signal, error) {
			payload, err := j.table.Data(n.Data)
			if err != nil {
				return sigNone, fmt.Errorf("restore %s: %w", n.Data, err)
			}
			if n.Into == nil {
				return sigNone, nil
			}
			if err := n.Into(&hostCtx{j: j, writes: n.Writes}, payload); err != nil {
				return sigNone, fmt.Errorf("restore %s: %w", n.Data, err)
			}
			return sigNone, nil
		}

	case dsl.Write:
		return j.sendStep(j.compileWrite(n))

	case dsl.Assert:
		return j.sendStep(j.compilePropUpdate(n.Target, n.Prop, true))
	case dsl.Retract:
		return j.sendStep(j.compilePropUpdate(n.Target, n.Prop, false))

	case dsl.Wait:
		return j.compileWait(n)

	case dsl.Verify:
		eval := j.compileFormula(n.Cond)
		return func(context.Context) (signal, error) {
			switch eval() {
			case formula.True:
				return sigNone, nil
			case formula.False:
				return sigNone, fmt.Errorf("%w: %s", ErrVerifyFailed, n.Cond)
			default:
				return sigNone, fmt.Errorf("%w: %s", ErrVerifyUnknown, n.Cond)
			}
		}

	case dsl.Keep:
		props := make([]string, len(n.Props))
		for i, p := range n.Props {
			props[i] = j.resolveSelfName(p)
		}
		return func(context.Context) (signal, error) {
			j.table.Keep(props, n.Data)
			return sigNone, nil
		}

	case dsl.If:
		eval := j.compileFormula(n.Cond)
		then := j.compileExpr(n.Then)
		var els step
		if n.Else != nil {
			els = j.compileExpr(n.Else)
		}
		return func(ctx context.Context) (signal, error) {
			if eval() == formula.True {
				return then(ctx)
			}
			if els != nil {
				return els(ctx)
			}
			return sigNone, nil
		}

	case dsl.Case:
		cc := j.compileCase(n)
		return func(ctx context.Context) (signal, error) { return cc.run(ctx, 0) }

	case dsl.Start:
		return func(context.Context) (signal, error) { return sigNone, j.sys.StartInstance(n.Instance, n.Args) }
	case dsl.Stop:
		return func(context.Context) (signal, error) { return sigNone, j.sys.StopInstance(n.Instance) }

	case dsl.IdxAssign:
		return func(context.Context) (signal, error) { return sigNone, j.SetIdx(n.Idx, n.Elem) }

	default:
		return func(context.Context) (signal, error) {
			return sigNone, fmt.Errorf("runtime: %s: unhandled expression %T", j.FQName, e)
		}
	}
}

// compilePar lowers parallel composition with the interpreter's barrier
// semantics: all branches run, every failure is awaited, the first failure
// (by branch order) wins, then the first non-none signal propagates. A par
// whose every branch is a single remote update is one send group
// (updateGroupStep); any other par runs its arms on pooled goroutines.
func (j *Junction) compilePar(branches dsl.Par) step {
	if len(branches) == 0 {
		return func(context.Context) (signal, error) { return sigNone, nil }
	}
	if len(branches) == 1 {
		return j.compileExpr(branches[0])
	}
	if preps := j.compileUpdatePreps(branches); preps != nil {
		return j.updateGroupStep(preps)
	}
	steps := make([]step, len(branches))
	for i, b := range branches {
		steps[i] = j.compileExpr(b)
	}
	return func(ctx context.Context) (signal, error) {
		sigs := make([]signal, len(steps))
		errs := make([]error, len(steps))
		var wg sync.WaitGroup
		for i, st := range steps {
			wg.Add(1)
			i, st := i, st
			goPar(func() {
				defer wg.Done()
				sigs[i], errs[i] = st(ctx)
			})
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return sigNone, err
			}
		}
		for _, s := range sigs {
			if s != sigNone {
				return s, nil
			}
		}
		return sigNone, nil
	}
}

// updatePrep is a lowered single-update statement up to its send: it
// resolves the name and target and applies the local-first table effect,
// returning the remote update to issue, if any.
type updatePrep func() (u remoteUpdate, remote bool, err error)

// sendStep completes a single-update statement as a send group of one.
func (j *Junction) sendStep(prep updatePrep) step {
	return func(ctx context.Context) (signal, error) {
		u, remote, err := prep()
		if err != nil || !remote {
			return sigNone, err
		}
		return sigNone, j.sys.sendUpdates(ctx, j, []remoteUpdate{u})
	}
}

// compileUpdatePreps lowers the branches of a par in which every branch is
// a single remote update — an assert/retract with a non-local target, or a
// write — and returns nil for any other par.
func (j *Junction) compileUpdatePreps(branches dsl.Par) []updatePrep {
	preps := make([]updatePrep, len(branches))
	for i, b := range branches {
		switch n := b.(type) {
		case dsl.Assert:
			if n.Target.IsLocal() {
				return nil
			}
			preps[i] = j.compilePropUpdate(n.Target, n.Prop, true)
		case dsl.Retract:
			if n.Target.IsLocal() {
				return nil
			}
			preps[i] = j.compilePropUpdate(n.Target, n.Prop, false)
		case dsl.Write:
			preps[i] = j.compileWrite(n)
		default:
			return nil
		}
	}
	return preps
}

// updateGroupStep runs a par of single remote updates from one goroutine:
// each arm in branch order resolves and applies its local effect, the
// resolved updates go out as one send group, and the step waits once. The
// barrier semantics are the pooled-goroutine par's: every arm is issued,
// every outcome awaited, and the first failure in branch order wins.
func (j *Junction) updateGroupStep(preps []updatePrep) step {
	return func(ctx context.Context) (signal, error) {
		ups := make([]remoteUpdate, len(preps))
		n := 0
		// prepErr is the first arm that failed before its send; before counts
		// the updates issued for the arms ahead of it.
		var prepErr error
		before := 0
		for _, prep := range preps {
			u, _, err := prep() // every arm targets a remote junction
			if err != nil {
				if prepErr == nil {
					prepErr, before = err, n
				}
				continue
			}
			ups[n] = u
			n++
		}
		err := j.sys.sendUpdates(ctx, j, ups[:n])
		if prepErr != nil {
			for _, u := range ups[:before] {
				if u.err != nil {
					return sigNone, u.err
				}
			}
			return sigNone, prepErr
		}
		return sigNone, err
	}
}

// compileTarget lowers a communication target. Static references resolve at
// compile time; idx references get a precomputed element→endpoint map over
// the idx's universe, with the dynamic resolver as fallback.
func (j *Junction) compileTarget(ref dsl.JunctionRef) func() (string, error) {
	constant := func(fq string) func() (string, error) {
		return func() (string, error) { return fq, nil }
	}
	fail := func(err error) func() (string, error) {
		return func() (string, error) { return "", err }
	}
	switch {
	case ref.MeJunction:
		return constant(j.FQName)
	case ref.MeInstance:
		return constant(j.inst.Name + "::" + ref.Junction)
	case ref.Idx != "":
		byElem := map[string]string{}
		if universe, ok := j.pj.Info.IdxUniverse(ref.Idx); ok {
			for _, e := range universe {
				re := j.resolveSelfName(e)
				if fq, err := j.elemToFQ(re); err == nil {
					byElem[re] = fq
				}
			}
		}
		idx := ref.Idx
		return func() (string, error) {
			elem, err := j.Idx(idx)
			if err != nil {
				return "", err
			}
			if fq, ok := byElem[elem]; ok {
				return fq, nil
			}
			return j.elemToFQ(elem)
		}
	case ref.Instance != "":
		if ref.Junction != "" {
			return constant(ref.Instance + "::" + ref.Junction)
		}
		fq, err := j.elemToFQ(ref.Instance)
		if err != nil {
			return fail(err)
		}
		return constant(fq)
	default:
		return fail(fmt.Errorf("runtime: %s: empty junction reference", j.FQName))
	}
}

// compilePropUpdate lowers assert/retract up to its send: local-first table
// update, then the remote update for a non-local target, mirroring
// execPropUpdate.
func (j *Junction) compilePropUpdate(target dsl.JunctionRef, pr dsl.PropRef, value bool) updatePrep {
	resolveName := j.compilePropName(pr)
	local := target.IsLocal()
	var resolveTo func() (string, error)
	if !local {
		resolveTo = j.compileTarget(target)
	}
	return func() (remoteUpdate, bool, error) {
		name, err := resolveName()
		if err != nil {
			return remoteUpdate{}, false, err
		}
		if j.table.HasProp(name) {
			if err := j.table.SetProp(name, value); err != nil {
				return remoteUpdate{}, false, err
			}
		} else if local {
			return remoteUpdate{}, false, fmt.Errorf("runtime: %s: local proposition %q not declared", j.FQName, name)
		}
		if local {
			return remoteUpdate{}, false, nil
		}
		to, err := resolveTo()
		if err != nil {
			return remoteUpdate{}, false, err
		}
		if to == j.FQName {
			return remoteUpdate{}, false, fmt.Errorf("runtime: %s: assert/retract to self — use the local form", j.FQName)
		}
		return remoteUpdate{to: to, kind: compart.KindProp, key: name, flag: value}, true, nil
	}
}

// compileWrite lowers write up to its send.
func (j *Junction) compileWrite(n dsl.Write) updatePrep {
	resolveTo := j.compileTarget(n.To)
	return func() (remoteUpdate, bool, error) {
		// The table's internal slice is safe to hold until the send: the
		// table replaces stored data rather than writing into it, and
		// sendUpdates copies the payload into the framed message body.
		payload, err := j.table.DataRef(n.Data)
		if err != nil {
			return remoteUpdate{}, false, fmt.Errorf("write %s: %w", n.Data, err)
		}
		to, err := resolveTo()
		if err != nil {
			return remoteUpdate{}, false, err
		}
		if to == j.FQName {
			return remoteUpdate{}, false, fmt.Errorf("runtime: %s: write to self", j.FQName)
		}
		return remoteUpdate{to: to, kind: compart.KindData, key: n.Data, payload: payload}, true, nil
	}
}

// compilePropName lowers a PropRef to a key resolver; everything but
// idx-variable indices resolves at compile time.
func (j *Junction) compilePropName(pr dsl.PropRef) func() (string, error) {
	if pr.Index == "" {
		name := j.resolveSelfName(pr.Base)
		return func() (string, error) { return name, nil }
	}
	if !pr.IndexIsVar {
		name := dsl.IndexedName(pr.Base, j.resolveSelfName(pr.Index))
		return func() (string, error) { return name, nil }
	}
	byElem := j.idxKeyMap(pr.Base, pr.Index)
	base, idx := pr.Base, pr.Index
	return func() (string, error) {
		elem, err := j.Idx(idx)
		if err != nil {
			return "", err
		}
		if k, ok := byElem[elem]; ok {
			return k, nil
		}
		return dsl.IndexedName(base, elem), nil
	}
}

// idxKeyMap precomputes element→"base[element]" keys over an idx's universe,
// so per-evaluation resolution is a map lookup instead of a concatenation.
func (j *Junction) idxKeyMap(base, idx string) map[string]string {
	byElem := map[string]string{}
	if universe, ok := j.pj.Info.IdxUniverse(idx); ok {
		for _, e := range universe {
			re := j.resolveSelfName(e)
			byElem[re] = dsl.IndexedName(base, re)
		}
	}
	return byElem
}

// compileWait lowers a wait statement. The admission set is prebuilt and
// shared when the formula reads no idx variables; the subscription covers the
// formula's read-set and the waited data keys, so a local-only wait blocks
// without polling. Idx bindings are captured at wait entry, exactly like the
// interpreter's substituteIdx.
func (j *Junction) compileWait(n dsl.Wait) step {
	wp := plan.CompileWait(j.pj.Info, n)
	condText := n.Cond.String()
	var eval func() formula.Truth
	if wp.Static {
		eval = j.compileFormula(n.Cond)
	}
	return func(ctx context.Context) (signal, error) {
		ws := wp.WS
		ev := eval
		if !wp.Static {
			cond := j.substituteIdx(n.Cond)
			ws = kv.NewWaitSet(cond, n.Data)
			ev = func() formula.Truth { return cond.Eval(j.env()) }
		}
		handle := j.table.BeginWait(ws)
		defer j.table.EndWait(handle)
		sub := j.table.Subscribe(wp.Reads.Props, wp.Reads.Data)
		defer j.table.Unsubscribe(sub)
		armed := j.noteWaitArmed(condText)
		for {
			if ev() == formula.True {
				j.noteWaitAdmitted(condText, armed)
				return sigNone, nil
			}
			if wp.Reads.Remote {
				select {
				case <-ctx.Done():
					j.noteWaitTimeout(condText)
					return sigNone, fmt.Errorf("%w: wait %s", ErrTimeout, n.Cond)
				case <-sub.Ch():
				case <-time.After(j.sys.opts.Poll):
				}
			} else {
				select {
				case <-ctx.Done():
					j.noteWaitTimeout(condText)
					return sigNone, fmt.Errorf("%w: wait %s", ErrTimeout, n.Cond)
				case <-sub.Ch():
				}
			}
		}
	}
}

// compileFormula lowers a formula to a closure evaluator with all static
// name and endpoint resolution hoisted out of the evaluation path. The
// evaluator returns exactly what Eval(j.env()) would.
func (j *Junction) compileFormula(f formula.Formula) func() formula.Truth {
	switch n := f.(type) {
	case formula.FalseF:
		return func() formula.Truth { return formula.False }
	case formula.Prop:
		return j.compileProp(n)
	case formula.NotF:
		sub := j.compileFormula(n.F)
		return func() formula.Truth { return sub().Not() }
	case formula.AndF:
		l, r := j.compileFormula(n.L), j.compileFormula(n.R)
		return func() formula.Truth { return l().And(r()) }
	case formula.OrF:
		l, r := j.compileFormula(n.L), j.compileFormula(n.R)
		return func() formula.Truth { return l().Or(r()) }
	case formula.ImpliesF:
		l, r := j.compileFormula(n.L), j.compileFormula(n.R)
		return func() formula.Truth { return l().Not().Or(r()) }
	default:
		// A formula kind this compiler does not know: fall back to the
		// reference evaluator.
		return func() formula.Truth { return f.Eval(j.env()) }
	}
}

func (j *Junction) compileProp(p formula.Prop) func() formula.Truth {
	if p.Junction == "" {
		if base, idxVar, ok := dsl.SplitIdxProp(p.Name); ok {
			byElem := j.idxKeyMap(base, idxVar)
			return func() formula.Truth {
				elem, err := j.Idx(idxVar)
				if err != nil {
					return formula.Unknown
				}
				key, ok := byElem[elem]
				if !ok {
					key = dsl.IndexedName(base, elem)
				}
				v, err := j.table.Prop(key)
				if err != nil {
					return formula.Unknown
				}
				return formula.FromBool(v)
			}
		}
		name := j.resolveSelfName(p.Name)
		return func() formula.Truth {
			v, err := j.table.Prop(name)
			if err != nil {
				return formula.Unknown
			}
			return formula.FromBool(v)
		}
	}
	// Junction-qualified proposition: the endpoint is static.
	unknown := func() formula.Truth { return formula.Unknown }
	fq, err := j.elemToFQ(j.resolveSelfName(p.Junction))
	if err != nil {
		return unknown
	}
	inst, jn, ok := strings.Cut(fq, "::")
	if !ok {
		return unknown
	}
	isRunning := p.Name == RunningProp
	var resolveName func() (string, bool)
	if base, idxVar, idxed := dsl.SplitIdxProp(p.Name); idxed {
		byElem := j.idxKeyMap(base, idxVar)
		resolveName = func() (string, bool) {
			elem, err := j.Idx(idxVar)
			if err != nil {
				return "", false
			}
			if k, ok := byElem[elem]; ok {
				return k, true
			}
			return dsl.IndexedName(base, elem), true
		}
	} else {
		name := j.resolveSelfName(p.Name)
		resolveName = func() (string, bool) { return name, true }
	}
	return func() formula.Truth {
		other := j.sys.junctionQuiet(inst, jn)
		if other == nil || !other.inst.running.Load() {
			if isRunning {
				return formula.False
			}
			return formula.Unknown
		}
		if isRunning {
			return formula.True
		}
		name, ok := resolveName()
		if !ok {
			return formula.Unknown
		}
		v, err := other.table.Prop(name)
		if err != nil {
			return formula.Unknown
		}
		return formula.FromBool(v)
	}
}

// --- case ---------------------------------------------------------------------

// compiledArm is one lowered F ⇒ E; T arm.
type compiledArm struct {
	cond func() formula.Truth
	body []step
	term dsl.Terminator
}

// compiledCase mirrors execCase/reconsider over pre-lowered arms; arm
// subranges ("next" restarts matching below an arm) are expressed as a base
// offset instead of re-slicing the AST.
type compiledCase struct {
	j         *Junction
	arms      []compiledArm
	otherwise []step
}

func (j *Junction) compileCase(c dsl.Case) *compiledCase {
	cc := &compiledCase{j: j, otherwise: j.compileBody(c.Otherwise)}
	for _, a := range c.Arms {
		cc.arms = append(cc.arms, compiledArm{
			cond: j.compileFormula(a.Cond),
			body: j.compileBody(a.Body),
			term: a.Term,
		})
	}
	return cc
}

// run is the compiled execCase over the arm subrange starting at base.
func (cc *compiledCase) run(ctx context.Context, base int) (signal, error) {
	j := cc.j
	arms := cc.arms[base:]
	start := 0
	for round := 0; ; round++ {
		if round > j.sys.opts.ReconsiderLimit {
			return sigNone, fmt.Errorf("runtime: %s: case exceeded %d reconsider/next rounds", j.FQName, j.sys.opts.ReconsiderLimit)
		}
		match := -1
		for i := start; i < len(arms); i++ {
			if arms[i].cond() == formula.True {
				match = i
				break
			}
		}
		var body []step
		var term dsl.Terminator
		if match >= 0 {
			body = arms[match].body
			term = arms[match].term
		} else {
			body = cc.otherwise
			term = dsl.TermBreak
			match = len(arms)
		}
		sig, err := runSteps(ctx, body)
		if err != nil {
			return sigNone, err
		}
		switch sig {
		case sigNone:
			switch term {
			case dsl.TermBreak:
				return sigNone, nil
			case dsl.TermNext:
				start = match + 1
				if start >= len(arms) {
					return cc.otherwiseTail(ctx)
				}
				continue
			case dsl.TermReconsider:
				return cc.reconsider(ctx, base, match)
			}
		case sigBreak:
			return sigNone, nil
		case sigNext:
			start = match + 1
			if start >= len(arms) {
				return cc.otherwiseTail(ctx)
			}
			continue
		case sigReconsider:
			return cc.reconsider(ctx, base, match)
		default:
			return sig, nil
		}
	}
}

// otherwiseTail runs the otherwise branch after next exhausted the arms;
// only return/retry propagate (mirroring execCase's tail handling).
func (cc *compiledCase) otherwiseTail(ctx context.Context) (signal, error) {
	sig, err := runSteps(ctx, cc.otherwise)
	if sig == sigReturn || sig == sigRetry {
		return sig, err
	}
	return sigNone, err
}

// reconsider is the compiled counterpart of Junction.reconsider over the arm
// subrange starting at base; currentArm is relative to base.
func (cc *compiledCase) reconsider(ctx context.Context, base, currentArm int) (signal, error) {
	arms := cc.arms[base:]
	match := len(arms)
	for i := 0; i < len(arms); i++ {
		if arms[i].cond() == formula.True {
			match = i
			break
		}
	}
	if match == currentArm {
		return sigNone, fmt.Errorf("%w: arm %d still matches", ErrReconsiderFailed, currentArm)
	}
	var body []step
	var term dsl.Terminator
	if match < len(arms) {
		body = arms[match].body
		term = arms[match].term
	} else {
		body = cc.otherwise
		term = dsl.TermBreak
	}
	sig, err := runSteps(ctx, body)
	if err != nil {
		return sigNone, err
	}
	next := func() (signal, error) {
		// A next after reconsider restarts matching below the new arm; with
		// no arms left the otherwise branch runs with its signal propagated
		// unfiltered (mirroring Junction.reconsider).
		newBase := base + match + 1
		if newBase >= len(cc.arms) {
			return runSteps(ctx, cc.otherwise)
		}
		return cc.run(ctx, newBase)
	}
	switch sig {
	case sigNone:
		switch term {
		case dsl.TermBreak:
			return sigNone, nil
		case dsl.TermNext:
			return next()
		case dsl.TermReconsider:
			return cc.reconsider(ctx, base, match)
		}
	case sigBreak:
		return sigNone, nil
	case sigReconsider:
		return cc.reconsider(ctx, base, match)
	case sigNext:
		return next()
	default:
		return sig, nil
	}
	return sigNone, nil
}
