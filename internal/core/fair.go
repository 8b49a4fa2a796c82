package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/mc"
	"repro/internal/system"
)

// FairStabilizing decides stabilization under weak fairness: "every
// weakly-fair computation of C has a suffix that is a suffix of an
// A-from-init computation". A computation is weakly fair when every
// action that is continuously enabled from some point on is taken
// infinitely often; finite maximal computations are fair trivially.
// Fairness needs action identity, so C is given as a LabeledSystem.
//
// The paper's Section 3–6 systems are analyzed unfair (Dijkstra's
// protocols stabilize under any daemon), but two of the mechanized
// findings — the Lemma 9 staircase at N = 4 and its C2 counterpart — are
// schedules that perpetually starve an enabled process. FairStabilizing
// re-examines such findings under the weaker adversary.
//
// Decision procedure: as in Stabilizing, a violation needs either a bad
// terminal or infinitely many bad events. The states a fair infinite
// computation visits infinitely often form a strongly connected set I;
// for every action α, either α is disabled somewhere in I or an α-edge
// inside I is taken. If a maximal SCC S has an action enabled at every
// one of its states but no such edge within S, then NO subset of S hosts
// a fair run (the action is continuously enabled yet never taken), so S
// is discarded entirely; otherwise a tour of all of S realizes a fair
// run and covers any bad event S contains. Pure-stutter cycles are
// handled with the unfair rule, which is conservative under fairness
// (strip τ self-loops first, as the Section 6 analyses do).
func FairStabilizing(c *system.LabeledSystem, a *system.System, ab *system.Abstraction) *StabilizationReport {
	rep, _ := FairStabilizingGas(nil, c, a, ab)
	return rep
}

// FairStabilizingGas is FairStabilizing under a meter: the terminal
// scan, the SCC analysis, and the legitimate-region sweep all charge
// g, so a budget bounds the whole decision procedure.
func FairStabilizingGas(g *mc.Gas, c *system.LabeledSystem, a *system.System, ab *system.Abstraction) (*StabilizationReport, error) {
	base := c.Base()
	relation := fmt.Sprintf("%s is stabilizing to %s under weak fairness", base.Name(), a.Name())
	rep := &StabilizationReport{}
	alpha, stutterOK, err := alphaOf(base, a, ab)
	if err != nil {
		rep.Verdict = fail(relation, err.Error(), nil, nil)
		return rep, nil
	}
	legit, err := mc.ReachFromInitGas(g, a)
	if err != nil {
		return nil, err
	}
	rep.ReachableLegit = legit.Count()

	badState := func(s int) bool { return !legit.Has(alpha.Of(s)) }
	badEdge := func(s, t int) bool {
		as, at := alpha.Of(s), alpha.Of(t)
		if a.HasTransition(as, at) {
			return false
		}
		return !(stutterOK && as == at)
	}

	// Violation 1: bad terminals (fairness is vacuous on finite maximal
	// computations).
	for s := 0; s < base.NumStates(); s++ {
		if err := g.Tick(1); err != nil {
			return nil, err
		}
		if !base.Terminal(s) {
			continue
		}
		as := alpha.Of(s)
		if !a.Terminal(as) || badState(s) {
			rep.Verdict = fail(relation,
				fmt.Sprintf("the one-state computation at terminal %s has no valid suffix: α-image %s is %s",
					base.StateString(s), a.StateString(as), describeBadAnchor(a, as, legit)),
				[]int{s}, nil)
			return rep, nil
		}
	}

	// Violation 2: fairness-admissible SCCs containing a bad event.
	cd, err := mc.SCCsGas(g, base, nil)
	if err != nil {
		return nil, err
	}
	defer cd.Release()
	for i := 0; i < cd.Len(); i++ {
		if err := g.Tick(1); err != nil {
			return nil, err
		}
		if !cd.Cyclic[i] {
			continue
		}
		scc := cd.Component(i)
		bad := sccBadEvent(scc, cd.Comp, c, badState, badEdge)
		if bad == nil {
			continue
		}
		if starved := sccStarvedAction(scc, cd.Comp, c); starved >= 0 {
			// Some action is enabled at every state of the SCC but never
			// taken inside it: no fair run can stay here.
			continue
		}
		rep.Verdict = fail(relation,
			fmt.Sprintf("a weakly-fair computation sustains bad event %s inside a %d-state component",
				bad, len(scc)),
			[]int{scc[0]}, cycleOf(base, scc))
		return rep, nil
	}

	// Violation 3 (conservative): pure-stutter divergence.
	if stutterOK {
		v, bad, err := checkStutterCycles(g, relation, base, a, alpha, bitset.Full(base.NumStates()))
		if err != nil {
			return nil, err
		}
		if bad {
			v.Relation = relation
			rep.Verdict = v
			return rep, nil
		}
	}

	// Legitimate region, as in the unfair check.
	sw, err := sweepBadEvents(g, base, cd, badState, badEdge)
	if err != nil {
		return nil, err
	}
	defer sw.release()
	rep.Legitimate = sw.legitimate(cd)
	rep.Verdict = ok(relation,
		fmt.Sprintf("every weakly-fair computation has a suffix tracking %s; %d of %d states are legitimate",
			a.Name(), len(rep.Legitimate), base.NumStates()))
	return rep, nil
}

// sccBadEvent returns a description of a bad event inside the component,
// or nil if none: a bad state, or a bad edge with both endpoints in the
// component.
func sccBadEvent(scc []int, comp []int, c *system.LabeledSystem, badState func(int) bool, badEdge func(int, int) bool) fmt.Stringer {
	base := c.Base()
	target := comp[scc[0]]
	for _, s := range scc {
		if badState(s) {
			return stringerf("state %s", base.StateString(s))
		}
		for _, t := range base.Succ(s) {
			if comp[t] == target && badEdge(s, t) {
				return stringerf("step %s → %s", base.StateString(s), base.StateString(t))
			}
		}
	}
	return nil
}

// sccStarvedAction returns an action enabled at every state of the
// component with no edge of that action inside the component, or −1.
func sccStarvedAction(scc []int, comp []int, c *system.LabeledSystem) int {
	target := comp[scc[0]]
	for a := 0; a < c.NumActions(); a++ {
		everywhere := true
		taken := false
		for _, s := range scc {
			if !c.Enabled(s, a) {
				everywhere = false
				break
			}
			for _, e := range c.Edges(s) {
				if e.Action == a && comp[e.To] == target {
					taken = true
				}
			}
		}
		if everywhere && !taken {
			return a
		}
	}
	return -1
}

// cycleOf extracts a witness cycle from a component.
func cycleOf(base *system.System, scc []int) []int {
	members := bitset.New(base.NumStates())
	for _, s := range scc {
		members.Add(s)
	}
	if cyc := mc.FindCycleWithin(base, members); cyc != nil {
		return cyc.States
	}
	return nil
}

// stringerf formats a string usable as a fmt.Stringer.
func stringerf(format string, args ...interface{}) fmt.Stringer {
	return stringerVal(fmt.Sprintf(format, args...))
}

// stringerVal is a string with a String method.
type stringerVal string

// String implements fmt.Stringer.
func (s stringerVal) String() string { return string(s) }
