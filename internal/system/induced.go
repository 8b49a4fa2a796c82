package system

import (
	"fmt"

	"repro/internal/bitset"
)

// Induced builds the subsystem of sys induced by the given state set: the
// new system's state space is exactly the kept states (re-indexed densely
// in increasing order), with the transitions among them and the initial
// states that survive. It returns the new system and the old-to-new index
// mapping (−1 for dropped states).
//
// The checkers quantify computations over a system's whole state space;
// restricting to the states reachable from a designated fault-start set
// before checking expresses "stabilizing with respect to fault class F"
// (only F-induced starts matter), as used by the Section 1 compiler
// example where faults corrupt variables but not the program counter.
// The kept set should be closed under transitions (e.g. a Reach result);
// transitions leaving it are dropped, which would otherwise manufacture
// spurious terminal states.
func Induced(sys *System, keep *bitset.Set) (*System, []int) {
	if keep.Len() != sys.n {
		panic(fmt.Sprintf("system: Induced universe %d does not match %q (%d states)", keep.Len(), sys.name, sys.n))
	}
	oldToNew := make([]int, sys.n)
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	var count int
	keep.ForEach(func(s int) {
		oldToNew[s] = count
		count++
	})
	if count == 0 {
		panic(fmt.Sprintf("system: Induced on empty set of %q", sys.name))
	}
	// oldToNew is increasing on the kept states, so each row stays sorted
	// and duplicate-free under re-indexing.
	out := &System{
		name: sys.name + "|induced",
		n:    count,
		off:  make([]int, count+1),
		succ: make([]int, 0, len(sys.succ)),
		init: bitset.New(count),
	}
	keep.ForEach(func(s int) {
		ns := oldToNew[s]
		for _, t := range sys.Succ(s) {
			if nt := oldToNew[t]; nt >= 0 {
				out.succ = append(out.succ, nt)
			}
		}
		out.off[ns+1] = len(out.succ)
		if sys.init.Has(s) {
			out.init.Add(ns)
		}
	})
	return out, oldToNew
}

// InducedAbstraction lifts an abstraction α: Σ_C → Σ_A to the induced
// subsystem: the new abstraction maps each kept (re-indexed) state to
// α(old index).
func InducedAbstraction(ab *Abstraction, oldToNew []int, keptCount int) (*Abstraction, error) {
	newToOld := make([]int, keptCount)
	for old, nw := range oldToNew {
		if nw >= 0 {
			newToOld[nw] = old
		}
	}
	return NewAbstraction(keptCount, ab.NumAbstract(), func(s int) int {
		return ab.Of(newToOld[s])
	})
}
