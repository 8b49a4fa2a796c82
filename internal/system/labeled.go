package system

import "fmt"

// LabeledEdge is one transition tagged with the guarded command (action)
// that produced it.
type LabeledEdge struct {
	// Action is an index into the owning LabeledSystem's action names.
	Action int
	// To is the successor state.
	To int
}

// LabeledSystem is an automaton that remembers which action produced each
// transition. Plain Systems suffice for the Section 2 relations, which
// are defined purely on state sequences; labels are needed for
// fairness-aware analysis, where "action α is eventually taken" must be
// distinguishable from "some transition happens".
//
// The edges are compressed sparse rows, like System's successors: the
// edges of s are edges[off[s]:off[s+1]], in increasing action order. An
// enabled guarded command yields exactly one edge, a τ self-loop
// included, so an action is enabled in s exactly when one of s's edges
// carries it.
type LabeledSystem struct {
	base    *System
	actions []string
	off     []int
	edges   []LabeledEdge
}

// NewLabeled builds a labeled automaton over base from its action names
// and its edges as compressed sparse rows. It takes ownership of off and
// edges, and panics unless every row lists at most one edge per action,
// in increasing action order, and the edges are exactly base's
// transitions.
func NewLabeled(base *System, actions []string, off []int, edges []LabeledEdge) *LabeledSystem {
	n := base.NumStates()
	if len(off) != n+1 || off[0] != 0 || off[n] != len(edges) {
		panic(fmt.Sprintf("system: malformed labeled rows for %q", base.Name()))
	}
	ls := &LabeledSystem{base: base, actions: actions, off: off, edges: edges}
	for s := 0; s < n; s++ {
		if off[s+1] < off[s] {
			panic(fmt.Sprintf("system: malformed labeled rows for %q", base.Name()))
		}
		row := ls.Edges(s)
		for i, e := range row {
			if e.Action < 0 || e.Action >= len(actions) || (i > 0 && e.Action <= row[i-1].Action) {
				panic(fmt.Sprintf("system: state %d of %q: edge labels out of order or range", s, base.Name()))
			}
			if !base.HasTransition(s, e.To) {
				panic(fmt.Sprintf("system: edge (%d, %d) of %q is not a transition", s, e.To, base.Name()))
			}
		}
		for _, t := range base.Succ(s) {
			if !hasEdgeTo(row, t) {
				panic(fmt.Sprintf("system: transition (%d, %d) of %q has no label", s, t, base.Name()))
			}
		}
	}
	return ls
}

func hasEdgeTo(row []LabeledEdge, t int) bool {
	for _, e := range row {
		if e.To == t {
			return true
		}
	}
	return false
}

// Base returns the underlying unlabeled automaton.
func (ls *LabeledSystem) Base() *System { return ls.base }

// NumActions returns the number of distinct actions.
func (ls *LabeledSystem) NumActions() int { return len(ls.actions) }

// ActionName returns the name of action a.
func (ls *LabeledSystem) ActionName(a int) string { return ls.actions[a] }

// Edges returns the labeled transitions from s in action order (shared
// storage; do not modify).
func (ls *LabeledSystem) Edges(s int) []LabeledEdge {
	lo, hi := ls.off[s], ls.off[s+1]
	return ls.edges[lo:hi:hi]
}

// Enabled reports whether action a's guard holds in state s.
func (ls *LabeledSystem) Enabled(s, a int) bool {
	for _, e := range ls.Edges(s) {
		if e.Action == a {
			return true
		}
	}
	return false
}

// BoxLabeled composes labeled systems by unioning actions and
// transitions; action indices of b are shifted past a's. Initial states
// are unioned, as with Box.
func BoxLabeled(a, b *LabeledSystem) *LabeledSystem {
	return concatLabeled(Box(a.base, b.base), a, b, false)
}

// PriorityBoxLabeled composes base with a preempting labeled wrapper:
// where the wrapper has an enabled action, only its edges occur.
func PriorityBoxLabeled(base, pre *LabeledSystem) *LabeledSystem {
	return concatLabeled(PriorityBox(base.base, pre.base), base, pre, true)
}

// concatLabeled lists per state x's edges, then y's with their actions
// shifted past x's; with preempt set, a state where y has an edge keeps
// only y's.
func concatLabeled(base *System, x, y *LabeledSystem, preempt bool) *LabeledSystem {
	n, shift := base.NumStates(), len(x.actions)
	off := make([]int, n+1)
	edges := make([]LabeledEdge, 0, len(x.edges)+len(y.edges))
	for s := 0; s < n; s++ {
		ye := y.Edges(s)
		if !preempt || len(ye) == 0 {
			edges = append(edges, x.Edges(s)...)
		}
		for _, e := range ye {
			edges = append(edges, LabeledEdge{Action: e.Action + shift, To: e.To})
		}
		off[s+1] = len(edges)
	}
	actions := append(append([]string(nil), x.actions...), y.actions...)
	return NewLabeled(base, actions, off, edges)
}
