// Package mc is the graph engine under the refinement and stabilization
// checkers: forward reachability, a flat Tarjan condensation into
// strongly connected components, shortest-path witnesses, and cycle
// detection restricted to a state subset. Everything operates on the
// automata of internal/system and is deterministic (successors are
// visited in sorted order).
//
// Every sweep comes in two forms: the plain entry point (Reach, SCCs, …),
// which always runs to completion, and a metered variant (ReachGas,
// SCCsGas, …) that ticks a Gas each visited state/edge so a server can
// cancel or budget-bound a check mid-flight.
package mc

import (
	"repro/internal/bitset"
	"repro/internal/system"
)

// Reach returns the set of states reachable from `from` via zero or more
// transitions of sys (so `from` itself is included).
func Reach(sys *system.System, from *bitset.Set) *bitset.Set {
	seen, _ := ReachGas(nil, sys, from)
	return seen
}

// ReachGas is Reach with cancellation: it ticks g once per expanded state
// plus once per traversed edge and aborts with g's error when the meter
// trips.
func ReachGas(g *Gas, sys *system.System, from *bitset.Set) (*bitset.Set, error) {
	return reachFrom(g, sys, from.Clone())
}

// reachFrom is ReachGas on a set it owns: it grows seen to every state
// reachable from it and returns it.
func reachFrom(g *Gas, sys *system.System, seen *bitset.Set) (*bitset.Set, error) {
	stack := seen.Members()
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succ := sys.Succ(s)
		if err := g.Tick(1 + len(succ)); err != nil {
			return nil, err
		}
		for _, t := range succ {
			if !seen.Has(t) {
				seen.Add(t)
				stack = append(stack, t)
			}
		}
	}
	return seen, nil
}

// ReachFromInit returns the states reachable from the initial states: the
// legitimate-state region of a specification.
func ReachFromInit(sys *system.System) *bitset.Set {
	return Reach(sys, sys.Init())
}

// ReachFromInitGas is ReachFromInit under a meter.
func ReachFromInitGas(g *Gas, sys *system.System) (*bitset.Set, error) {
	return reachFrom(g, sys, sys.Init()) // Init returns a copy
}

// BFSTree holds the result of a breadth-first search from a single source:
// distances (-1 for unreachable) and BFS-tree parents (-1 for source and
// unreachable states). Paths reconstructed from it are shortest paths.
type BFSTree struct {
	Source int
	Dist   []int
	Parent []int
}

// BFS runs a breadth-first search over sys from source. If within is
// non-nil the search only traverses states in it (the source must be a
// member).
func BFS(sys *system.System, source int, within *bitset.Set) *BFSTree {
	tr, _ := BFSGas(nil, sys, source, within)
	return tr
}

// BFSGas is BFS under a meter.
func BFSGas(g *Gas, sys *system.System, source int, within *bitset.Set) (*BFSTree, error) {
	n := sys.NumStates()
	tr := &BFSTree{Source: source, Dist: make([]int, n), Parent: make([]int, n)}
	for i := range tr.Dist {
		tr.Dist[i] = -1
		tr.Parent[i] = -1
	}
	tr.Dist[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		succ := sys.Succ(s)
		if err := g.Tick(1 + len(succ)); err != nil {
			return nil, err
		}
		for _, t := range succ {
			if within != nil && !within.Has(t) {
				continue
			}
			if tr.Dist[t] == -1 {
				tr.Dist[t] = tr.Dist[s] + 1
				tr.Parent[t] = s
				queue = append(queue, t)
			}
		}
	}
	return tr, nil
}

// PathTo reconstructs the shortest path from the tree's source to t,
// inclusive of both endpoints. It returns nil if t is unreachable. For
// t == source it returns the one-state path.
func (tr *BFSTree) PathTo(t int) []int {
	if tr.Dist[t] == -1 {
		return nil
	}
	path := make([]int, tr.Dist[t]+1)
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = t
		t = tr.Parent[t]
	}
	return path
}

// ShortestPath returns a shortest path from `from` to `to` (inclusive), or
// nil if none exists.
func ShortestPath(sys *system.System, from, to int) []int {
	return BFS(sys, from, nil).PathTo(to)
}

// PathFromInit returns a shortest path from some initial state of sys to
// target, or nil if target is unreachable from I.
func PathFromInit(sys *system.System, target int) []int {
	p, _ := PathFromInitGas(nil, sys, target)
	return p
}

// PathFromInitGas is PathFromInit under a meter.
func PathFromInitGas(g *Gas, sys *system.System, target int) ([]int, error) {
	var best []int
	var err error
	sys.Init().ForEach(func(s int) {
		if err != nil {
			return
		}
		tr, e := BFSGas(g, sys, s, nil)
		if e != nil {
			err = e
			return
		}
		if p := tr.PathTo(target); p != nil && (best == nil || len(p) < len(best)) {
			best = p
		}
	})
	if err != nil {
		return nil, err
	}
	return best, nil
}
