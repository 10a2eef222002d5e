package runtime

// This file is the tree-walking interpreter, retained as the executable
// semantic reference for the compiled execution path in compiled.go (the
// same role reflectwalk.go plays for the serial codec plans). The default
// path lowers junction bodies to closures at StartInstance time; this
// interpreter runs under Options.DisableCompiledPlan, and the equivalence
// suite holds the two to identical observable behaviour over the whole
// pattern catalogue.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/kv"
	"csaw/internal/obsv"
)

// signal is the control-flow outcome of executing an expression; failures
// travel separately as errors (and are what otherwise / transactions handle).
type signal uint8

const (
	sigNone signal = iota
	sigBreak
	sigNext
	sigReconsider
	sigReturn
	sigRetry
)

// exec interprets one expression in the context of this junction.
func (j *Junction) exec(ctx context.Context, e dsl.Expr) (signal, error) {
	if err := ctx.Err(); err != nil {
		return sigNone, fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	switch n := e.(type) {
	case dsl.Skip:
		return sigNone, nil
	case dsl.Return:
		return sigReturn, nil
	case dsl.Retry:
		return sigRetry, nil
	case dsl.Break:
		return sigBreak, nil
	case dsl.Next:
		return sigNext, nil
	case dsl.Reconsider:
		return sigReconsider, nil

	case dsl.Seq:
		for _, c := range n {
			sig, err := j.exec(ctx, c)
			if err != nil || sig != sigNone {
				return sig, err
			}
		}
		return sigNone, nil

	case dsl.Par:
		return j.execPar(ctx, n)

	case dsl.ParN:
		branches := make(dsl.Par, 0, n.N*len(n.Body))
		for i := 0; i < n.N; i++ {
			branches = append(branches, n.Body...)
		}
		return j.execPar(ctx, branches)

	case dsl.Scope:
		sig, err := j.exec(ctx, dsl.Seq(n.Body))
		if sig == sigReturn {
			// return leaves the fate scope: execution continues after it
			// (semantics: η{return ↦ η(sub)}).
			sig = sigNone
		}
		return sig, err

	case dsl.Txn:
		snap := j.table.Snapshot()
		j.noteTxn(obsv.EvTxnBegin)
		sig, err := j.exec(ctx, dsl.Seq(n.Body))
		if err != nil {
			j.table.Restore(snap)
			j.noteTxn(obsv.EvTxnRollback)
			return sigNone, err
		}
		j.noteTxn(obsv.EvTxnCommit)
		if sig == sigReturn {
			sig = sigNone
		}
		return sig, nil

	case dsl.Otherwise:
		sub := ctx
		cancel := func() {}
		if n.Timeout > 0 {
			sub, cancel = context.WithTimeout(ctx, n.Timeout)
		}
		sig, err := j.exec(sub, n.Try)
		cancel()
		if err == nil {
			return sig, nil
		}
		if ctx.Err() != nil {
			// The enclosing deadline expired, not ours: propagate.
			return sigNone, err
		}
		return j.exec(ctx, n.Handler)

	case dsl.Host:
		hc := &hostCtx{j: j, writes: n.Writes}
		if err := n.Fn(hc); err != nil {
			return sigNone, fmt.Errorf("host %s: %w", n.Label, err)
		}
		return sigNone, nil

	case dsl.Save:
		payload, err := n.From(&hostCtx{j: j, writes: []string{n.Data}})
		if err != nil {
			return sigNone, fmt.Errorf("save %s: %w", n.Data, err)
		}
		return sigNone, j.table.SetData(n.Data, payload)

	case dsl.Restore:
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

	case dsl.Write:
		payload, err := j.table.Data(n.Data)
		if err != nil {
			return sigNone, fmt.Errorf("write %s: %w", n.Data, err)
		}
		to, err := j.resolveTarget(n.To)
		if err != nil {
			return sigNone, err
		}
		if to == j.FQName {
			return sigNone, fmt.Errorf("runtime: %s: write to self", j.FQName)
		}
		if err := j.sys.sendUpdates(ctx, j, []remoteUpdate{{to: to, kind: compart.KindData, key: n.Data, payload: payload}}); err != nil {
			return sigNone, err
		}
		return sigNone, nil

	case dsl.Assert:
		return j.execPropUpdate(ctx, n.Target, n.Prop, true)
	case dsl.Retract:
		return j.execPropUpdate(ctx, n.Target, n.Prop, false)

	case dsl.Wait:
		return j.execWait(ctx, n)

	case dsl.Verify:
		switch n.Cond.Eval(j.env()) {
		case formula.True:
			return sigNone, nil
		case formula.False:
			return sigNone, fmt.Errorf("%w: %s", ErrVerifyFailed, n.Cond)
		default:
			return sigNone, fmt.Errorf("%w: %s", ErrVerifyUnknown, n.Cond)
		}

	case dsl.Keep:
		props := make([]string, len(n.Props))
		for i, p := range n.Props {
			props[i] = j.resolveSelfName(p)
		}
		j.table.Keep(props, n.Data)
		return sigNone, nil

	case dsl.If:
		if n.Cond.Eval(j.env()) == formula.True {
			return j.exec(ctx, n.Then)
		}
		if n.Else != nil {
			return j.exec(ctx, n.Else)
		}
		return sigNone, nil

	case dsl.Case:
		return j.execCase(ctx, n)

	case dsl.Start:
		return sigNone, j.sys.StartInstance(n.Instance, n.Args)
	case dsl.Stop:
		return sigNone, j.sys.StopInstance(n.Instance)

	case dsl.IdxAssign:
		return sigNone, j.SetIdx(n.Idx, n.Elem)

	default:
		return sigNone, fmt.Errorf("runtime: %s: unhandled expression %T", j.FQName, e)
	}
}

// execPar runs parallel branches concurrently over the shared table. All
// branches must succeed; the first failure wins. A non-none signal from any
// branch (e.g. break inside a parallel for) is propagated after the barrier.
func (j *Junction) execPar(ctx context.Context, branches dsl.Par) (signal, error) {
	if len(branches) == 0 {
		return sigNone, nil
	}
	if len(branches) == 1 {
		return j.exec(ctx, branches[0])
	}
	sigs := make([]signal, len(branches))
	errs := make([]error, len(branches))
	var wg sync.WaitGroup
	for i, b := range branches {
		wg.Add(1)
		i, b := i, b
		goPar(func() {
			defer wg.Done()
			sigs[i], errs[i] = j.exec(ctx, b)
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

// execPropUpdate implements assert/retract: the local table is updated first
// ("this line updates the KV table of f and g", paper §4), then the update
// is pushed to the remote target; a communication failure fails the
// statement after the local effect (use a transaction block to undo).
func (j *Junction) execPropUpdate(ctx context.Context, target dsl.JunctionRef, pr dsl.PropRef, value bool) (signal, error) {
	name, err := j.resolvePropName(pr)
	if err != nil {
		return sigNone, err
	}
	if j.table.HasProp(name) {
		if err := j.table.SetProp(name, value); err != nil {
			return sigNone, err
		}
	} else if target.IsLocal() {
		return sigNone, fmt.Errorf("runtime: %s: local proposition %q not declared", j.FQName, name)
	}
	if target.IsLocal() {
		return sigNone, nil
	}
	to, err := j.resolveTarget(target)
	if err != nil {
		return sigNone, err
	}
	if to == j.FQName {
		return sigNone, fmt.Errorf("runtime: %s: assert/retract to self — use the local form", j.FQName)
	}
	if err := j.sys.sendUpdates(ctx, j, []remoteUpdate{{to: to, kind: compart.KindProp, key: name, flag: value}}); err != nil {
		return sigNone, err
	}
	return sigNone, nil
}

// execWait blocks until the formula is true, admitting remote updates to the
// formula's propositions and the listed data keys while blocked. The
// enclosing otherwise[t] deadline (ctx) bounds the wait.
func (j *Junction) execWait(ctx context.Context, n dsl.Wait) (signal, error) {
	cond := j.substituteIdx(n.Cond)
	ws := kv.NewWaitSet(cond, n.Data)
	handle := j.table.BeginWait(ws)
	defer j.table.EndWait(handle)
	condText := cond.String()
	armed := j.noteWaitArmed(condText)
	for {
		if cond.Eval(j.env()) == formula.True {
			j.noteWaitAdmitted(condText, armed)
			return sigNone, nil
		}
		select {
		case <-ctx.Done():
			j.noteWaitTimeout(condText)
			return sigNone, fmt.Errorf("%w: wait %s", ErrTimeout, n.Cond)
		case <-j.table.Notify():
		case <-time.After(j.sys.opts.Poll):
			// Fallback wake for formulas over remote state.
		}
	}
}

// substituteIdx rewrites $idx-indexed propositions in a formula to their
// concrete names using the junction's current idx values, so the wait set
// admits the right keys. Unresolvable indices are left as-is (they evaluate
// to Unknown).
func (j *Junction) substituteIdx(f formula.Formula) formula.Formula {
	switch n := f.(type) {
	case formula.Prop:
		if n.Junction != "" {
			return n
		}
		if base, idxVar, ok := dsl.SplitIdxProp(n.Name); ok {
			if elem, err := j.Idx(idxVar); err == nil {
				return formula.P(dsl.IndexedName(base, elem))
			}
			return n
		}
		return formula.P(j.resolveSelfName(n.Name))
	case formula.FalseF:
		return n
	case formula.NotF:
		return formula.NotF{F: j.substituteIdx(n.F)}
	case formula.AndF:
		return formula.AndF{L: j.substituteIdx(n.L), R: j.substituteIdx(n.R)}
	case formula.OrF:
		return formula.OrF{L: j.substituteIdx(n.L), R: j.substituteIdx(n.R)}
	case formula.ImpliesF:
		return formula.ImpliesF{L: j.substituteIdx(n.L), R: j.substituteIdx(n.R)}
	default:
		return f
	}
}

// execCase interprets the case expression with its three terminator forms.
//
// The first arm whose guard is definitely true runs; with no match the
// otherwise branch runs. Terminators: break leaves the case; next retries
// matching only after the arm that succeeded (function N of §8.3);
// reconsider re-evaluates from the top and only proceeds when a different
// match is made — otherwise the expression fails (paper §6). Reconsider
// rounds are bounded by Options.ReconsiderLimit as a termination backstop.
func (j *Junction) execCase(ctx context.Context, c dsl.Case) (signal, error) {
	start := 0    // next only matches arms after the last successful one
	lastArm := -1 // index of the arm whose body most recently ran (-1 = none)
	for round := 0; ; round++ {
		if round > j.sys.opts.ReconsiderLimit {
			return sigNone, fmt.Errorf("runtime: %s: case exceeded %d reconsider/next rounds", j.FQName, j.sys.opts.ReconsiderLimit)
		}
		match := -1
		env := j.env()
		for i := start; i < len(c.Arms); i++ {
			if j.substituteIdx(c.Arms[i].Cond).Eval(env) == formula.True {
				match = i
				break
			}
		}

		var body []dsl.Expr
		var term dsl.Terminator
		if match >= 0 {
			body = c.Arms[match].Body
			term = c.Arms[match].Term
		} else {
			body = c.Otherwise
			term = dsl.TermBreak
			match = len(c.Arms) // sentinel index for the otherwise branch
		}

		sig, err := j.exec(ctx, dsl.Seq(body))
		if err != nil {
			return sigNone, err
		}
		switch sig {
		case sigNone:
			// The arm body ran to completion: apply its terminator.
			switch term {
			case dsl.TermBreak:
				return sigNone, nil
			case dsl.TermNext:
				lastArm = match
				start = match + 1
				if start >= len(c.Arms) {
					// Only otherwise remains; validation forbids next on the
					// final arm, so this can only follow earlier matches.
					sig2, err2 := j.exec(ctx, dsl.Seq(c.Otherwise))
					if sig2 == sigReturn || sig2 == sigRetry {
						return sig2, err2
					}
					return sigNone, err2
				}
				continue
			case dsl.TermReconsider:
				ns, nerr := j.reconsider(ctx, c, match)
				return ns, nerr
			}
		case sigBreak:
			return sigNone, nil
		case sigNext:
			lastArm = match
			start = match + 1
			if start >= len(c.Arms) {
				sig2, err2 := j.exec(ctx, dsl.Seq(c.Otherwise))
				if sig2 == sigReturn || sig2 == sigRetry {
					return sig2, err2
				}
				return sigNone, err2
			}
			continue
		case sigReconsider:
			return j.reconsider(ctx, c, match)
		default:
			// return / retry propagate out of the case.
			return sig, nil
		}
		_ = lastArm
	}
}

// reconsider re-evaluates the case from the top. If a different arm (or the
// otherwise branch) now matches, it runs; matching the same arm again fails
// the expression (paper §6).
func (j *Junction) reconsider(ctx context.Context, c dsl.Case, currentArm int) (signal, error) {
	env := j.env()
	match := len(c.Arms) // default: otherwise
	for i := 0; i < len(c.Arms); i++ {
		if j.substituteIdx(c.Arms[i].Cond).Eval(env) == formula.True {
			match = i
			break
		}
	}
	if match == currentArm {
		return sigNone, fmt.Errorf("%w: arm %d still matches", ErrReconsiderFailed, currentArm)
	}
	var body []dsl.Expr
	var term dsl.Terminator
	if match < len(c.Arms) {
		body = c.Arms[match].Body
		term = c.Arms[match].Term
	} else {
		body = c.Otherwise
		term = dsl.TermBreak
	}
	sig, err := j.exec(ctx, dsl.Seq(body))
	if err != nil {
		return sigNone, err
	}
	switch sig {
	case sigNone:
		switch term {
		case dsl.TermBreak:
			return sigNone, nil
		case dsl.TermNext:
			// A next after reconsider restarts matching below the new arm.
			rest := dsl.Case{Arms: c.Arms[match+1:], Otherwise: c.Otherwise}
			if len(rest.Arms) == 0 {
				return j.exec(ctx, dsl.Seq(c.Otherwise))
			}
			return j.execCase(ctx, rest)
		case dsl.TermReconsider:
			return j.reconsider(ctx, c, match)
		}
	case sigBreak:
		return sigNone, nil
	case sigReconsider:
		return j.reconsider(ctx, c, match)
	case sigNext:
		rest := dsl.Case{Arms: c.Arms[match+1:], Otherwise: c.Otherwise}
		if len(rest.Arms) == 0 {
			return j.exec(ctx, dsl.Seq(c.Otherwise))
		}
		return j.execCase(ctx, rest)
	default:
		return sig, nil
	}
	return sigNone, nil
}

// --- host context -------------------------------------------------------------

// hostCtx implements dsl.HostCtx for one host block invocation, enforcing
// the V⃗ write-set.
type hostCtx struct {
	j      *Junction
	writes []string
}

func (h *hostCtx) allowed(name string) bool {
	for _, w := range h.writes {
		if w == name {
			return true
		}
	}
	return false
}

// Data implements dsl.HostCtx.
func (h *hostCtx) Data(name string) ([]byte, error) { return h.j.table.Data(name) }

// Prop implements dsl.HostCtx.
func (h *hostCtx) Prop(name string) (bool, error) {
	return h.j.table.Prop(h.j.resolveSelfName(name))
}

// Save implements dsl.HostCtx.
func (h *hostCtx) Save(name string, payload []byte) error {
	if !h.allowed(name) {
		return fmt.Errorf("%w: data %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	return h.j.table.SetData(name, payload)
}

// SetProp implements dsl.HostCtx.
func (h *hostCtx) SetProp(name string, v bool) error {
	if !h.allowed(name) {
		return fmt.Errorf("%w: prop %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	return h.j.table.SetProp(h.j.resolveSelfName(name), v)
}

// SetIdx implements dsl.HostCtx.
func (h *hostCtx) SetIdx(name, elem string) error {
	if !h.allowed(name) {
		return fmt.Errorf("%w: idx %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	return h.j.SetIdx(name, elem)
}

// SetSubset implements dsl.HostCtx.
func (h *hostCtx) SetSubset(name string, elems []string) error {
	if !h.allowed(name) {
		return fmt.Errorf("%w: subset %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	return h.j.SetSubset(name, elems)
}

// App implements dsl.HostCtx.
func (h *hostCtx) App() any { return h.j.inst.app }

// Instance implements dsl.HostCtx.
func (h *hostCtx) Instance() string { return h.j.inst.Name }

// Junction implements dsl.HostCtx.
func (h *hostCtx) Junction() string { return h.j.FQName }
