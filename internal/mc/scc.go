package mc

import (
	"repro/internal/bitset"
	"repro/internal/system"
)

// SCCs computes the strongly connected components of sys restricted to the
// states in `within` (nil means all states), using an iterative Tarjan
// algorithm. Components are returned in reverse topological order (Tarjan's
// natural emission order: a component is emitted only after everything it
// can reach). comp[s] is the component index of s, or -1 if s ∉ within.
func SCCs(sys *system.System, within *bitset.Set) (components [][]int, comp []int) {
	components, comp, _ = SCCsGas(nil, sys, within)
	return components, comp
}

// SCCsGas is SCCs under a meter: it ticks g once per discovered state and
// once per examined edge. The components are subslices of one backing
// array, filled in emission order.
func SCCsGas(g *Gas, sys *system.System, within *bitset.Set) (components [][]int, comp []int, err error) {
	n := sys.NumStates()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp = make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	// Every component's members back to back, in emission order; starts
	// holds where each component begins.
	members := make([]int, 0, n)
	var starts []int
	next := 0

	inSet := func(s int) bool { return within == nil || within.Has(s) }

	// Iterative Tarjan with an explicit call frame per state.
	type frame struct {
		s  int
		ei int // index into Succ(s)
	}
	var call []frame // reused across roots
	for root := 0; root < n; root++ {
		if index[root] != unvisited || !inSet(root) {
			continue
		}
		call = append(call[:0], frame{s: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			succ := sys.Succ(f.s)
			advanced := false
			if err := g.Tick(1); err != nil {
				return nil, nil, err
			}
			for f.ei < len(succ) {
				t := succ[f.ei]
				f.ei++
				if !inSet(t) {
					continue
				}
				if index[t] == unvisited {
					index[t] = next
					low[t] = next
					next++
					stack = append(stack, t)
					onStack[t] = true
					call = append(call, frame{s: t})
					advanced = true
					break
				}
				if onStack[t] && index[t] < low[f.s] {
					low[f.s] = index[t]
				}
			}
			if advanced {
				continue
			}
			// f.s finished.
			if low[f.s] == index[f.s] {
				starts = append(starts, len(members))
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(starts) - 1
					members = append(members, w)
					if w == f.s {
						break
					}
				}
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].s
				if low[f.s] < low[parent] {
					low[parent] = low[f.s]
				}
			}
		}
	}
	components = make([][]int, len(starts))
	for i, lo := range starts {
		hi := len(members)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		components[i] = members[lo:hi:hi]
	}
	return components, comp, nil
}

// Cycle holds a witness cycle: states[0] == states[len-1] is implied (the
// last state has a transition back to states[0]).
type Cycle struct {
	States []int
}

// FindCycleWithin returns a cycle of sys lying entirely inside `within`, or
// nil if the restriction of sys to `within` is acyclic. Self-loops count as
// cycles.
func FindCycleWithin(sys *system.System, within *bitset.Set) *Cycle {
	cyc, _ := FindCycleWithinGas(nil, sys, within)
	return cyc
}

// FindCycleWithinGas is FindCycleWithin under a meter.
func FindCycleWithinGas(g *Gas, sys *system.System, within *bitset.Set) (*Cycle, error) {
	components, comp, err := SCCsGas(g, sys, within)
	if err != nil {
		return nil, err
	}
	for _, c := range components {
		if err := g.Tick(1); err != nil {
			return nil, err
		}
		if len(c) > 1 {
			return traceCycle(sys, within, comp, c), nil
		}
		s := c[0]
		if sys.HasTransition(s, s) {
			return &Cycle{States: []int{s}}, nil
		}
	}
	return nil, nil
}

// traceCycle extracts an explicit cycle from a non-trivial SCC by walking
// successors inside the component until a state repeats.
func traceCycle(sys *system.System, within *bitset.Set, comp []int, c []int) *Cycle {
	target := comp[c[0]]
	pos := make(map[int]int)
	var walk []int
	s := c[0]
	for {
		if at, seen := pos[s]; seen {
			return &Cycle{States: walk[at:]}
		}
		pos[s] = len(walk)
		walk = append(walk, s)
		advanced := false
		for _, t := range sys.Succ(s) {
			if (within == nil || within.Has(t)) && comp[t] == target {
				s = t
				advanced = true
				break
			}
		}
		if !advanced {
			// Cannot happen inside a non-trivial SCC; guard anyway.
			return &Cycle{States: walk}
		}
	}
}

// TerminalsWithin returns the states of `within` that are terminal in sys
// (no outgoing transitions at all — not merely none inside within).
func TerminalsWithin(sys *system.System, within *bitset.Set) []int {
	var out []int
	within.ForEach(func(s int) {
		if sys.Terminal(s) {
			out = append(out, s)
		}
	})
	return out
}
