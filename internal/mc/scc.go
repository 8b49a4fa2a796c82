package mc

import (
	"repro/internal/bitset"
	"repro/internal/system"
)

// Condensation is the strongly connected components of a system, or of
// its restriction to a state subset, as flat arrays. Components are
// numbered in Tarjan's emission order, which is reverse topological: a
// component is emitted only after every component it can reach, so sinks
// come first and an edge from component i into another component enters
// one numbered below i.
type Condensation struct {
	// Comp[s] is the component of s, or −1 if s lies outside the subset.
	Comp []int
	// Off and Members hold the components as compressed sparse rows: the
	// members of component i are Members[Off[i]:Off[i+1]], in the order
	// Tarjan popped them.
	Off     []int
	Members []int
	// Cyclic[i] reports whether component i sustains an infinite run: it
	// has more than one member, or its one member has a self-loop.
	Cyclic []bool
}

// Release gives the condensation's Σ-sized arrays back to the pool
// system.Ints draws from, and clears them, so a later use panics instead
// of reading arrays another check has reused. Call it where the
// condensation dies, once nothing read from Comp, Off or Members is
// still held.
func (cd *Condensation) Release() {
	system.PutInts(cd.Comp)
	system.PutInts(cd.Off)
	system.PutInts(cd.Members)
	system.PutBools(cd.Cyclic)
	cd.Comp, cd.Off, cd.Members, cd.Cyclic = nil, nil, nil, nil
}

// Len returns the number of components.
func (cd *Condensation) Len() int { return len(cd.Off) - 1 }

// Component returns the members of component i. Its capacity ends with
// the component, so an append cannot spill into the next one.
func (cd *Condensation) Component(i int) []int {
	lo, hi := cd.Off[i], cd.Off[i+1]
	return cd.Members[lo:hi:hi]
}

// SCCs computes the strongly connected components of sys restricted to the
// states in `within` (nil means all states), using an iterative Tarjan
// algorithm.
func SCCs(sys *system.System, within *bitset.Set) *Condensation {
	cd, _ := SCCsGas(nil, sys, within)
	return cd
}

// SCCsGas is SCCs under a meter: it ticks g 1+|succ| per discovered
// state. Every per-state buffer, the DFS call stack included, is sized
// from the state count once and drawn from the system pool.
func SCCsGas(g *Gas, sys *system.System, within *bitset.Set) (*Condensation, error) {
	n := sys.NumStates()
	// scratch holds index and then the DFS call stack. index −1 means
	// unvisited. A visited state stays on Tarjan's stack until its
	// component is emitted, so "on the stack" is "visited with Comp < 0".
	scratch := system.Ints(n + frameLen*n)
	defer system.PutInts(scratch)
	index := scratch[:n]
	comp := system.Ints(n)
	for s := range index {
		index[s] = -1
		comp[s] = -1
	}
	// Emitted members fill buf from the front and Tarjan's stack grows down
	// from the back: together they never hold more than n states.
	buf := system.Ints(n)
	emitted, top := 0, n
	cd := &Condensation{Comp: comp, Off: system.Ints(n + 1)[:1], Cyclic: system.Bools(n)[:0]}
	cd.Off[0] = 0

	// Iterative DFS. The state at the end of the DFS path is in locals: s,
	// ei, the next entry of its row to scan, its low-link (read only while
	// the state is on the path), and loop, whether a self-loop was seen
	// while scanning its row. Every state before it on the path waits in
	// call as a frame of frameLen ints: the state, 2·ei + loop, and the
	// low-link. A state is on the path at most once, so the path fits in
	// n frames. A state is discovered when it first reaches the end of
	// the path.
	call := scratch[n:n]
	next := 0
	for root := 0; root < n; root++ {
		if index[root] >= 0 || (within != nil && !within.Has(root)) {
			continue
		}
		s, ei, low, loop := root, 0, 0, false
		for {
			succ := sys.Succ(s)
			if index[s] < 0 {
				if err := g.Tick(1 + len(succ)); err != nil {
					cd.Members = buf // so that Release gives buf back too
					cd.Release()
					return nil, err
				}
				index[s], low = next, next
				next++
				top--
				buf[top] = s
			}
			descended := false
			for ei < len(succ) {
				t := succ[ei]
				ei++
				if t == s {
					loop = true
					continue
				}
				if within != nil && !within.Has(t) {
					continue
				}
				if index[t] < 0 {
					l := 0
					if loop {
						l = 1
					}
					call = append(call, s, ei<<1|l, low)
					s, ei, loop = t, 0, false
					descended = true
					break
				}
				if comp[t] < 0 && index[t] < low {
					low = index[t]
				}
			}
			if descended {
				continue
			}
			// s finished: emit its component if it is the root of one.
			if low == index[s] {
				ci, first := cd.Len(), emitted
				for {
					w := buf[top]
					top++
					comp[w] = ci
					buf[emitted] = w
					emitted++
					if w == s {
						break
					}
				}
				cd.Off = append(cd.Off, emitted)
				cd.Cyclic = append(cd.Cyclic, loop || emitted-first > 1)
			}
			if len(call) == 0 {
				break
			}
			// Resume the state before s on the path.
			f := call[len(call)-frameLen:]
			s, ei, loop, low = f[0], f[1]>>1, f[1]&1 == 1, min(f[2], low)
			call = call[:len(call)-frameLen]
		}
	}
	cd.Members = buf[:emitted]
	return cd, nil
}

// frameLen is the length of one DFS call frame in SCCsGas.
const frameLen = 3

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

// FindCycleWithinGas is FindCycleWithin under a meter. The cycle lies in
// the first cyclic component Tarjan emits.
func FindCycleWithinGas(g *Gas, sys *system.System, within *bitset.Set) (*Cycle, error) {
	cd, err := SCCsGas(g, sys, within)
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
		c := cd.Component(i)
		if len(c) > 1 {
			return traceCycle(sys, within, cd.Comp, c), nil
		}
		return &Cycle{States: []int{c[0]}}, nil
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
