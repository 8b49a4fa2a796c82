package system

import "fmt"

// PriorityBox composes base with a preempting wrapper: in any state where
// pre has an enabled transition, only pre's transitions occur; elsewhere
// base's transitions occur. Initial states are the union, as with Box.
//
// This implements the execution convention Section 3.2's token-deletion
// wrapper W2 needs: "if ever ↑t.j and ↓t.j are truthified at the same
// state, then both of the tokens are deleted". Under the plain union
// (Box), a daemon may keep choosing the ring's own move actions at a
// collision state, letting opposing tokens pass through each other forever
// and defeating convergence — the experiments demonstrate this failure
// mechanically. PriorityBox resolves every collision before normal
// execution resumes, which is how the refined systems behave implicitly
// (their encodings make collisions either impossible or self-resolving).
func PriorityBox(base, pre *System) *System {
	if base.n != pre.n {
		panic(fmt.Sprintf("system: PriorityBox(%q, %q): |Σ| mismatch %d vs %d", base.name, pre.name, base.n, pre.n))
	}
	if base.space != nil && pre.space != nil && !base.space.SameShape(pre.space) {
		panic(fmt.Sprintf("system: PriorityBox(%q, %q): incompatible spaces", base.name, pre.name))
	}
	out := &System{
		name:  base.name + " <] " + pre.name,
		space: base.space,
		n:     base.n,
		off:   make([]int, base.n+1),
		succ:  make([]int, 0, len(base.succ)),
	}
	if out.space == nil {
		out.space = pre.space
	}
	for s := 0; s < base.n; s++ {
		if !pre.Terminal(s) {
			out.succ = append(out.succ, pre.Succ(s)...)
		} else {
			out.succ = append(out.succ, base.Succ(s)...)
		}
		out.off[s+1] = len(out.succ)
	}
	init := base.init.Clone()
	init.UnionWith(pre.init)
	out.init = init
	return out
}
