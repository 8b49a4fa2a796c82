package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/mc"
	"repro/internal/system"
)

// ConvergenceRefinement decides [C ⪯ A] (Section 2's central definition):
//
//  1. [C ⊑ A]_init, and
//  2. every computation of C is a convergence isomorphism of some
//     computation of A — a subsequence with finitely many omissions, the
//     same initial state, and the same final state (if any).
//
// The decision procedure works edge-by-edge. A concrete step (s, t) must be
// realizable in A as a path from α(s) to α(t) of length ≥ 1: length exactly
// one is an exact step; length k ≥ 2 is a *compression* that omits k−1
// abstract states (Section 4.2's "compressed forms of computations"). A
// step with α(s) = α(t) is a stutter (τ step, Section 6) and is dropped by
// destuttering; stutters are only meaningful with a non-nil abstraction.
//
// Finiteness of omissions is a global condition: a compression edge lying
// on a cycle of C could be traversed infinitely often, making the omission
// count infinite. The procedure therefore rejects any compression edge
// (s, t) where t can reach s in C. For the paper's systems this condition
// holds because compressions destroy tokens (Lemma 7's argument) — the
// checker verifies the consequence directly instead of trusting the
// argument.
//
// Soundness: if the check passes, stitching the covering paths of the
// successive steps of any C-computation yields an A-computation of which
// the (destuttered image of the) C-computation is a convergence
// isomorphism. Completeness holds whenever A's covering paths can be chosen
// independently per edge, which is the case for every system in this
// repository; a failure report therefore names a genuinely offending step.
func ConvergenceRefinement(c, a *system.System, ab *system.Abstraction) *ConvergenceReport {
	rep, _ := ConvergenceRefinementGas(nil, c, a, ab)
	return rep
}

// ConvergenceRefinementGas is ConvergenceRefinement under a meter: the
// embedded refinement check, the per-edge sweep, and the covering-path
// searches all tick g, and the check aborts with g's error (cancellation
// or budget exhaustion) instead of running to completion.
func ConvergenceRefinementGas(g *mc.Gas, c, a *system.System, ab *system.Abstraction) (*ConvergenceReport, error) {
	relation := fmt.Sprintf("[%s ⪯ %s]", c.Name(), a.Name())
	rep := &ConvergenceReport{}
	alpha, stutterOK, err := alphaOf(c, a, ab)
	if err != nil {
		rep.Verdict = fail(relation, err.Error(), nil, nil)
		return rep, nil
	}

	rep.RefinementInit, err = RefinementInitGas(g, c, a, ab)
	if err != nil {
		return nil, err
	}
	if !rep.RefinementInit.Holds {
		rep.Verdict = fail(relation, "the embedded [C ⊑ A]_init check failed: "+rep.RefinementInit.Reason,
			rep.RefinementInit.Witness, rep.RefinementInit.WitnessLoop)
		return rep, nil
	}

	full := bitset.Full(c.NumStates())
	// Memoized BFS trees over A, one per needed source.
	trees := make(map[int]*mc.BFSTree)
	treeFor := func(src int) (*mc.BFSTree, error) {
		tr, okm := trees[src]
		if !okm {
			var err error
			tr, err = mc.BFSGas(g, a, src, nil)
			if err != nil {
				return nil, err
			}
			trees[src] = tr
		}
		return tr, nil
	}
	// SCC index of C, computed lazily on the first compression edge: an
	// edge (s, t) lies on a cycle of C iff s and t share a component.
	var cd *mc.Condensation
	defer func() {
		if cd != nil {
			cd.Release()
		}
	}()
	sameSCC := func(s, t int) (bool, error) {
		if s == t {
			return true, nil
		}
		if cd == nil {
			var err error
			if cd, err = mc.SCCsGas(g, c, nil); err != nil {
				return false, err
			}
		}
		return cd.Comp[s] == cd.Comp[t], nil
	}

	for s := 0; s < c.NumStates(); s++ {
		if err := g.Tick(1); err != nil {
			return nil, err
		}
		as := alpha.Of(s)
		if c.Terminal(s) {
			if !a.Terminal(as) {
				rep.Verdict = fail(relation,
					fmt.Sprintf("C terminates at %s but α-image %s is not terminal in %s: final states must agree",
						c.StateString(s), a.StateString(as), a.Name()),
					[]int{s}, nil)
				return rep, nil
			}
			continue
		}
		for _, t := range c.Succ(s) {
			if err := g.Tick(1); err != nil {
				return nil, err
			}
			at := alpha.Of(t)
			if as == at {
				if stutterOK {
					rep.StutterEdges++
					continue
				}
				if a.HasTransition(as, at) {
					rep.ExactEdges++
					continue
				}
				rep.Verdict = fail(relation,
					fmt.Sprintf("self-loop %s is not a transition of %s (no stutter allowance on a shared state space)",
						c.StateString(s), a.Name()),
					[]int{s, t}, nil)
				return rep, nil
			}
			if a.HasTransition(as, at) {
				rep.ExactEdges++
				continue
			}
			// Candidate compression: need an A-path α(s) →+ α(t).
			tree, err := treeFor(as)
			if err != nil {
				return nil, err
			}
			cover := tree.PathTo(at)
			if cover == nil {
				rep.Verdict = fail(relation,
					fmt.Sprintf("concrete step %s → %s has no covering path in %s: C departs from A's recovery paths",
						c.StateString(s), c.StateString(t), a.Name()),
					[]int{s, t}, nil)
				return rep, nil
			}
			// Finiteness: the compression edge must not lie on a C-cycle.
			cyclicEdge, err := sameSCC(s, t)
			if err != nil {
				return nil, err
			}
			if cyclicEdge {
				rep.Verdict = fail(relation,
					fmt.Sprintf("compression step %s → %s (omitting %d abstract states) lies on a cycle of C: a computation can traverse it infinitely often, so omissions are not finite",
						c.StateString(s), c.StateString(t), len(cover)-2),
					[]int{s, t}, nil)
				return rep, nil
			}
			rep.Compressions = append(rep.Compressions, Compression{
				From: s, To: t, Omissions: len(cover) - 2, Cover: cover,
			})
		}
	}

	if stutterOK {
		v, bad, err := checkStutterCycles(g, relation, c, a, alpha, full)
		if err != nil {
			return nil, err
		}
		if bad {
			rep.Verdict = v
			return rep, nil
		}
	}

	total := 0
	for _, cp := range rep.Compressions {
		total += cp.Omissions
	}
	rep.Verdict = ok(relation, fmt.Sprintf("%d exact steps, %d compressions (%d omitted abstract states max per computation), %d stutter steps",
		rep.ExactEdges, len(rep.Compressions), total, rep.StutterEdges))
	return rep, nil
}
