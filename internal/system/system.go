package system

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
)

// System is the paper's Definition 1: a finite-state automaton (Σ, T, I)
// where Σ is [0, NumStates()), T is the transition relation, and I is the
// set of initial states. A computation is a maximal sequence of states
// related by T (finite computations end in states with no outgoing
// transition).
//
// T is stored as compressed sparse rows: the successors of s are
// succ[off[s]:off[s+1]], sorted and duplicate-free, so a whole system is
// two flat arrays however many states it has.
//
// Systems are immutable once built; construct them with a Builder or from
// rows with FromSuccessors (gcl compiles guarded-command programs into
// them). The owner of a system nobody else holds may Release it, giving
// its rows back for a later system to reuse.
type System struct {
	name  string
	space *Space // may be nil for raw index-based systems
	n     int
	off   []int // len n+1
	succ  []int // len off[n]; its capacity may run past that
	init  *bitset.Set
}

// Builder accumulates transitions and initial states for a System.
// Transitions are recorded flat, in arrival order; Build groups them by
// source, sorts each row and merges duplicates.
type Builder struct {
	name  string
	space *Space
	n     int
	src   []int
	dst   []int
	init  *bitset.Set
}

// NewBuilder returns a builder for a system over the raw state space [0, n).
func NewBuilder(name string, n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("system: non-positive state count %d", n))
	}
	return &Builder{
		name: name,
		n:    n,
		init: bitset.New(n),
	}
}

// NewSpaceBuilder returns a builder for a system over the given space.
func NewSpaceBuilder(name string, sp *Space) *Builder {
	b := NewBuilder(name, sp.Size())
	b.space = sp
	return b
}

func (b *Builder) checkState(s int) {
	if s < 0 || s >= b.n {
		panic(fmt.Sprintf("system: state %d out of [0,%d) in %q", s, b.n, b.name))
	}
}

// AddTransition records the transition (s, t). Duplicates are merged.
func (b *Builder) AddTransition(s, t int) {
	b.checkState(s)
	b.checkState(t)
	b.src = append(b.src, s)
	b.dst = append(b.dst, t)
}

// AddInit marks s as an initial state.
func (b *Builder) AddInit(s int) {
	b.checkState(s)
	b.init.Add(s)
}

// Wrappers add no initial states at all: a Builder with no AddInit calls
// yields a system with I = ∅, the wrapper convention used by Box.

// Build freezes the builder into an immutable System. The builder stays
// usable: later additions do not affect systems already built.
func (b *Builder) Build() *System {
	off := make([]int, b.n+1)
	for _, s := range b.src {
		off[s+1]++
	}
	for s := 0; s < b.n; s++ {
		off[s+1] += off[s]
	}
	targets := make([]int, len(b.dst))
	next := make([]int, b.n)
	copy(next, off)
	for i, s := range b.src {
		targets[next[s]] = b.dst[i]
		next[s]++
	}
	return FromSuccessors(b.name, b.space, off, targets, b.init.Clone())
}

// FromSuccessors builds a system from compressed sparse rows: the
// successors of state s are targets[off[s]:off[s+1]], in any order and
// possibly repeated. It takes ownership of off, targets and init
// (nil means I = ∅), sorting and deduplicating each row in place and
// keeping targets' full capacity, so that Release can give it back. It
// panics on malformed rows or out-of-range states, and, when sp is
// non-nil, on a row count other than sp.Size().
func FromSuccessors(name string, sp *Space, off, targets []int, init *bitset.Set) *System {
	n := len(off) - 1
	if n <= 0 || off[0] != 0 || off[n] != len(targets) {
		panic(fmt.Sprintf("system: malformed successor rows for %q", name))
	}
	if sp != nil && sp.Size() != n {
		panic(fmt.Sprintf("system: %q has %d rows, its space %d states", name, n, sp.Size()))
	}
	if init == nil {
		init = bitset.New(n)
	} else if init.Len() != n {
		panic(fmt.Sprintf("system: %q initial-state universe %d, want %d", name, init.Len(), n))
	}
	w, start := 0, 0
	for s := 0; s < n; s++ {
		end := off[s+1]
		if end < start {
			panic(fmt.Sprintf("system: malformed successor rows for %q", name))
		}
		row := targets[start:end]
		if len(row) <= shortRow {
			insertionSort(row)
		} else {
			slices.Sort(row)
		}
		off[s] = w
		prev := -1
		for _, t := range row {
			if t < 0 || t >= n {
				panic(fmt.Sprintf("system: state %d out of [0,%d) in %q", t, n, name))
			}
			if t != prev {
				targets[w] = t
				w++
				prev = t
			}
		}
		start = end
	}
	off[n] = w
	return &System{name: name, space: sp, n: n, off: off, succ: targets[:w], init: init}
}

// shortRow is the longest row FromSuccessors sorts by insertion: a ring
// state has a successor per enabled process, a handful.
const shortRow = 8

func insertionSort(row []int) {
	for i := 1; i < len(row); i++ {
		t, j := row[i], i
		for ; j > 0 && row[j-1] > t; j-- {
			row[j] = row[j-1]
		}
		row[j] = t
	}
}

// Release gives the system's rows back to the pool that Ints draws
// from, and clears them: a later Succ, HasTransition or Terminal on sys
// panics instead of reading rows another check has reused. Release only
// a system you built and never shared; the copies Rename and WithInit
// return share its rows.
func (sys *System) Release() {
	PutInts(sys.off)
	PutInts(sys.succ)
	sys.off, sys.succ = nil, nil
}

// Name returns the system's display name.
func (sys *System) Name() string { return sys.name }

// Space returns the structured state space, or nil for raw systems.
func (sys *System) Space() *Space { return sys.space }

// NumStates returns |Σ|.
func (sys *System) NumStates() int { return sys.n }

// NumTransitions returns |T|.
func (sys *System) NumTransitions() int { return len(sys.succ) }

// Succ returns the successors of s in increasing order. The returned slice
// is owned by the System and must not be modified; it is shared rather than
// copied because Succ is the hot path of every reachability sweep. Its
// capacity ends with the row, so an append cannot spill into s+1's row.
func (sys *System) Succ(s int) []int {
	lo, hi := sys.off[s], sys.off[s+1]
	return sys.succ[lo:hi:hi]
}

// HasTransition reports whether (s, t) ∈ T. A short row is scanned;
// a long one is searched.
func (sys *System) HasTransition(s, t int) bool {
	ts := sys.Succ(s)
	if len(ts) > shortRow {
		_, found := slices.BinarySearch(ts, t)
		return found
	}
	for _, u := range ts {
		if u >= t {
			return u == t
		}
	}
	return false
}

// Terminal reports whether s has no outgoing transition (computations
// reaching s are finite and end there).
func (sys *System) Terminal(s int) bool { return sys.off[s] == sys.off[s+1] }

// Init returns a copy of the initial-state set.
func (sys *System) Init() *bitset.Set { return sys.init.Clone() }

// IsInit reports whether s ∈ I.
func (sys *System) IsInit(s int) bool { return sys.init.Has(s) }

// InitStates returns the initial states in increasing order.
func (sys *System) InitStates() []int { return sys.init.Members() }

// StateString renders s using the system's space, or as "s<i>" for raw
// systems.
func (sys *System) StateString(s int) string {
	if sys.space != nil {
		return sys.space.StateString(s)
	}
	return fmt.Sprintf("s%d", s)
}

// String summarizes the automaton.
func (sys *System) String() string {
	return fmt.Sprintf("%s: |Σ|=%d |T|=%d |I|=%d", sys.name, sys.n, len(sys.succ), sys.init.Count())
}

// Rename returns a shallow copy of sys with a different display name.
// Sharing the transition storage is safe because systems are immutable.
func (sys *System) Rename(name string) *System {
	c := *sys
	c.name = name
	return &c
}

// WithInit returns a copy of sys whose initial states are exactly the given
// ones. Used when deriving an initialized system from a wrapper-style
// (all-states-initial) automaton.
func (sys *System) WithInit(states []int) *System {
	c := *sys
	c.init = bitset.FromSlice(sys.n, states)
	return &c
}

// StripSelfLoops returns a copy of sys without self-loop transitions.
// A guarded command whose effect leaves the state unchanged (a τ step,
// Section 6) contributes the transition (s, s); as a sequence of states,
// executing it changes nothing, and a daemon spinning on such a no-op
// forever is indistinguishable from not executing at all. Dropping
// self-loops models the standard convention that maximal computations are
// sequences of state *changes*.
func (sys *System) StripSelfLoops() *System {
	c := *sys
	c.off = make([]int, sys.n+1)
	c.succ = make([]int, 0, len(sys.succ))
	for s := 0; s < sys.n; s++ {
		for _, t := range sys.Succ(s) {
			if t != s {
				c.succ = append(c.succ, t)
			}
		}
		c.off[s+1] = len(c.succ)
	}
	return &c
}

// TransitionsEqual reports whether two systems over the same state space
// have exactly the same transition relation. Used by the derivations to
// check claims of the form "the composed system IS Dijkstra's system".
func TransitionsEqual(a, b *System) bool {
	return a.n == b.n && slices.Equal(a.off, b.off) && slices.Equal(a.succ, b.succ)
}

// Equal reports whether two systems have identical state spaces, transition
// relations, and initial-state sets.
func Equal(a, b *System) bool {
	return TransitionsEqual(a, b) && a.init.Equal(b.init)
}

// DiffTransitions returns up to max transitions present in a but not in b,
// for diagnostic messages. Pass max <= 0 for all of them.
func DiffTransitions(a, b *System, max int) [][2]int {
	var out [][2]int
	for s := 0; s < a.n; s++ {
		for _, t := range a.Succ(s) {
			if !b.HasTransition(s, t) {
				out = append(out, [2]int{s, t})
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}
