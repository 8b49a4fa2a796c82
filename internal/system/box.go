package system

import "fmt"

// Box is the paper's [] operator: the union of automata. The transition
// relation of (A [] W) is T_A ∪ T_W and the initial states are I_A ∪ I_W.
// Wrappers are built with no initial states of their own, so boxing a
// wrapper onto a system preserves the system's initial states — exactly
// the convention Sections 3–6 rely on — while wrapper-to-wrapper
// convergence refinements [W' ⪯ W] are judged on all computations, their
// (vacuous) initial-state clause interfering with nothing.
//
// Box panics if the systems have different state-space sizes or
// incompatible structured spaces; composing systems over different spaces
// is always a modeling bug.
func Box(a, b *System) *System {
	if a.n != b.n {
		panic(fmt.Sprintf("system: Box(%q, %q): |Σ| mismatch %d vs %d", a.name, b.name, a.n, b.n))
	}
	if a.space != nil && b.space != nil && !a.space.SameShape(b.space) {
		panic(fmt.Sprintf("system: Box(%q, %q): incompatible spaces", a.name, b.name))
	}
	out := &System{
		name:  a.name + " [] " + b.name,
		space: a.space,
		n:     a.n,
		off:   make([]int, a.n+1),
		succ:  make([]int, 0, len(a.succ)+len(b.succ)),
	}
	if out.space == nil {
		out.space = b.space
	}
	for s := 0; s < a.n; s++ {
		out.succ = appendMerged(out.succ, a.Succ(s), b.Succ(s))
		out.off[s+1] = len(out.succ)
	}
	init := a.init.Clone()
	init.UnionWith(b.init)
	out.init = init
	return out
}

// BoxAll folds Box over one or more systems, left to right.
func BoxAll(systems ...*System) *System {
	if len(systems) == 0 {
		panic("system: BoxAll of zero systems")
	}
	out := systems[0]
	for _, s := range systems[1:] {
		out = Box(out, s)
	}
	return out
}

// appendMerged appends the sorted, duplicate-free union of two sorted,
// duplicate-free int slices to out.
func appendMerged(out, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
