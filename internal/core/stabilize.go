package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/mc"
	"repro/internal/system"
)

// Stabilizing decides the paper's tolerance definition exactly: "C is
// stabilizing to A iff every computation of C has a suffix that is a
// suffix of some computation of A that starts at an initial state of A."
// Transient faults are modeled by letting computations of C start anywhere
// in Σ, so the check quantifies over all states, not just C's initial ones.
//
// The decision rests on a finite-state characterization. Call an
// occurrence in a computation a *bad event* if it is
//
//   - a state whose α-image is not reachable from A's initial states, or
//   - a step that is neither an A-transition (under α) nor a stutter.
//
// A suffix starting after the last bad event follows A's transitions
// through A-reachable states, so it is a suffix of an A-from-init
// computation (its finite endpoint must additionally be A-terminal).
// Hence a computation has a valid suffix iff it contains finitely many bad
// events and ends well. On a finite automaton, the violations are exactly:
//
//  1. a terminal state of C whose α-image is not an A-reachable terminal
//     state of A (the one-state computation starting there has no valid
//     suffix);
//  2. a bad state or bad step lying on a cycle of C (a computation can
//     loop through it forever, incurring infinitely many bad events);
//  3. a cycle of pure stutter steps whose abstract image is not
//     A-terminal (the computation loops forever while its destuttered
//     image stalls as a finite, non-maximal sequence).
//
// Passing A as both arguments (with a nil abstraction) decides
// self-stabilization, "A is stabilizing to A".
func Stabilizing(c, a *system.System, ab *system.Abstraction) *StabilizationReport {
	rep, _ := StabilizingGas(nil, c, a, ab)
	return rep
}

// StabilizingGas is Stabilizing under a meter: every state-space sweep
// ticks g, and the check returns g's error (cancellation or budget
// exhaustion) instead of running to completion.
func StabilizingGas(g *mc.Gas, c, a *system.System, ab *system.Abstraction) (*StabilizationReport, error) {
	relation := fmt.Sprintf("%s is stabilizing to %s", c.Name(), a.Name())
	legit, err := mc.ReachFromInitGas(g, a)
	if err != nil {
		return nil, err
	}
	rep, err := suffixTracking(g, relation, c, a, ab, legit)
	if err != nil {
		return nil, err
	}
	rep.ReachableLegit = legit.Count()
	return rep, nil
}

// SelfStabilizing decides "A is stabilizing to A".
func SelfStabilizing(a *system.System) *StabilizationReport {
	return Stabilizing(a, a, nil)
}

// SelfStabilizingGas is SelfStabilizing under a meter.
func SelfStabilizingGas(g *mc.Gas, a *system.System) (*StabilizationReport, error) {
	return StabilizingGas(g, a, a, nil)
}

// EverywhereEventuallyRefinement decides the Section 7 relation: C is an
// everywhere-eventually refinement of A iff (1) [C ⊑ A]_init and (2) every
// computation of C is an arbitrary finite prefix over Σ followed by a
// computation of A. The A-suffix may start at any state of A — not just
// the reachable ones — and may use recovery paths entirely different from
// A's, which is why this relation is too permissive for graybox wrapper
// design (see the odd/even recovery-path example in this package's tests).
func EverywhereEventuallyRefinement(c, a *system.System, ab *system.Abstraction) Verdict {
	relation := fmt.Sprintf("[%s ⊑ee %s]", c.Name(), a.Name())
	if v := RefinementInit(c, a, ab); !v.Holds {
		return fail(relation, "the embedded [C ⊑ A]_init check failed: "+v.Reason, v.Witness, v.WitnessLoop)
	}
	// Same finitely-many-bad-events machinery, but with no reachability
	// constraint on A's side: the suffix may be a computation of A from
	// anywhere.
	rep, _ := suffixTracking(nil, relation, c, a, ab, nil)
	return rep.Verdict
}

// suffixTracking implements the shared finitely-many-bad-events check.
// legit, when non-nil, restricts valid suffixes to α-images inside it
// (stabilization); nil means any A state may anchor the suffix
// (everywhere-eventually refinement).
func suffixTracking(g *mc.Gas, relation string, c, a *system.System, ab *system.Abstraction, legit *bitset.Set) (*StabilizationReport, error) {
	rep := &StabilizationReport{}
	alpha, stutterOK, err := alphaOf(c, a, ab)
	if err != nil {
		rep.Verdict = fail(relation, err.Error(), nil, nil)
		return rep, nil
	}

	badState := func(s int) bool {
		return legit != nil && !legit.Has(alpha.Of(s))
	}
	// Checked against itself under the identity, every step of C is a
	// step of A: no edge is bad, and the per-edge lookups are skipped.
	var badEdge func(s, t int) bool
	if c != a || ab != nil {
		badEdge = func(s, t int) bool {
			as, at := alpha.Of(s), alpha.Of(t)
			if a.HasTransition(as, at) {
				return false
			}
			return !(stutterOK && as == at)
		}
	}

	// Violation 1: bad terminals.
	for s := 0; s < c.NumStates(); s++ {
		if err := g.Tick(1); err != nil {
			return nil, err
		}
		if !c.Terminal(s) {
			continue
		}
		as := alpha.Of(s)
		if !a.Terminal(as) || badState(s) {
			rep.Verdict = fail(relation,
				fmt.Sprintf("the one-state computation at terminal %s has no valid suffix: α-image %s is %s",
					c.StateString(s), a.StateString(as), describeBadAnchor(a, as, legit)),
				[]int{s}, nil)
			return rep, nil
		}
	}

	// Violations 2: bad states / bad steps on cycles. An edge (s, t) lies
	// on a cycle iff s and t share an SCC; a state lies on a cycle iff its
	// SCC is cyclic. The same sweep finds the legitimate region.
	cd, err := mc.SCCsGas(g, c, nil)
	if err != nil {
		return nil, err
	}
	defer cd.Release()
	sw, err := sweepBadEvents(g, c, cd, badState, badEdge)
	if err != nil {
		return nil, err
	}
	defer sw.release()
	if s := sw.at; s >= 0 {
		cyc, err := cycleThrough(g, c, cd, s)
		if err != nil {
			return nil, err
		}
		if sw.step < 0 {
			rep.Verdict = fail(relation,
				fmt.Sprintf("state %s (α-image outside %s's reachable region) lies on a cycle: a computation revisits it forever and no suffix escapes it",
					c.StateString(s), a.Name()),
				[]int{s}, cyc)
		} else {
			rep.Verdict = fail(relation,
				fmt.Sprintf("step %s → %s does not track %s and lies on a cycle: a computation incurs it infinitely often",
					c.StateString(s), c.StateString(sw.step), a.Name()),
				[]int{s, sw.step}, cyc)
		}
		return rep, nil
	}

	// Violation 3: pure-stutter divergence.
	if stutterOK {
		v, bad, err := checkStutterCycles(g, relation, c, a, alpha, bitset.Full(c.NumStates()))
		if err != nil {
			return nil, err
		}
		if bad {
			v.Relation = relation
			rep.Verdict = v
			return rep, nil
		}
	}

	// The relation holds. For reporting, the legitimate region is the set
	// of states from which no bad event is reachable: all computations
	// from these states track A (within the legitimate region) forever.
	rep.Legitimate = sw.legitimate(cd)
	rep.Verdict = ok(relation,
		fmt.Sprintf("every computation has a suffix tracking %s; %d of %d states are legitimate (no bad event reachable)",
			a.Name(), len(rep.Legitimate), c.NumStates()))
	return rep, nil
}

// badSweep is what one pass over a condensation learns about bad events.
type badSweep struct {
	// at is the smallest state that incurs a bad event on a cycle: a bad
	// state in a cyclic component, or the source of a bad step inside its
	// own component; −1 if there is none. step is the target of at's
	// first such step, or −1 when at is itself bad.
	at, step int
	// reachBad[i] reports whether a bad event is reachable from
	// component i. It is drawn from system.Bools; release gives it back.
	reachBad []bool
}

// release gives reachBad back to the pool it was drawn from.
func (sw *badSweep) release() {
	system.PutBools(sw.reachBad)
	sw.reachBad = nil
}

// sweepBadEvents visits the components of cd in emission order, sinks
// first, so every component an edge leads into is decided before the
// edge's source. A component reaches a bad event iff a member is bad or
// takes a bad step, or an edge enters a component that reaches one. A nil
// badEdge means no step is bad. Each edge is checked against badEdge at
// most once, and only while the answer can still change the outcome.
func sweepBadEvents(g *mc.Gas, c *system.System, cd *mc.Condensation, badState func(int) bool, badEdge func(int, int) bool) (badSweep, error) {
	sw := badSweep{at: -1, step: -1, reachBad: system.Bools(cd.Len())}
	for i := range sw.reachBad {
		reach := false
		for _, s := range cd.Component(i) {
			succ := c.Succ(s)
			if err := g.Tick(1 + len(succ)); err != nil {
				sw.release()
				return sw, err
			}
			// s can displace the violation found so far only if smaller.
			open := sw.at < 0 || s < sw.at
			if badState(s) {
				reach = true
				if open && cd.Cyclic[i] {
					sw.at, sw.step, open = s, -1, false
				}
			}
			for _, t := range succ {
				if j := cd.Comp[t]; j != i {
					reach = reach || sw.reachBad[j] || (badEdge != nil && badEdge(s, t))
				} else if (open || !reach) && badEdge != nil && badEdge(s, t) {
					reach = true
					if open {
						sw.at, sw.step, open = s, t, false
					}
				}
			}
		}
		sw.reachBad[i] = reach
	}
	return sw, nil
}

// legitimate lists, in index order, the states of the components from
// which no bad event is reachable.
func (sw badSweep) legitimate(cd *mc.Condensation) []int {
	size := 0
	for i, reach := range sw.reachBad {
		if !reach {
			size += len(cd.Component(i))
		}
	}
	out := make([]int, 0, size)
	for s, ci := range cd.Comp {
		if !sw.reachBad[ci] {
			out = append(out, s)
		}
	}
	return out
}

// describeBadAnchor explains why an abstract state cannot anchor a valid
// suffix.
func describeBadAnchor(a *system.System, as int, legit *bitset.Set) string {
	if legit != nil && !legit.Has(as) {
		if !a.Terminal(as) {
			return "neither terminal in nor reachable in " + a.Name()
		}
		return "not reachable from the initial states of " + a.Name()
	}
	return "not terminal in " + a.Name()
}

// cycleThrough extracts a cycle inside s's component, for witness display.
func cycleThrough(g *mc.Gas, c *system.System, cd *mc.Condensation, s int) ([]int, error) {
	members := bitset.FromSlice(c.NumStates(), cd.Component(cd.Comp[s]))
	cyc, err := mc.FindCycleWithinGas(g, c, members)
	if err != nil {
		return nil, err
	}
	if cyc != nil {
		return cyc.States, nil
	}
	return nil, nil
}
