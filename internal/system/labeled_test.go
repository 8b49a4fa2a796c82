package system

import (
	"math/rand"
	"slices"
	"testing"
)

// fromRows builds a labeled system over sp through the raw constructor:
// state s has the edges rows[s], and init lists the initial states.
func fromRows(name string, sp *Space, actions []string, rows [][]LabeledEdge, init ...int) *LabeledSystem {
	b := NewSpaceBuilder(name, sp)
	off := []int{0}
	var edges []LabeledEdge
	for s, row := range rows {
		for _, e := range row {
			b.AddTransition(s, e.To)
		}
		edges = append(edges, row...)
		off = append(off, len(edges))
	}
	for _, s := range init {
		b.AddInit(s)
	}
	return NewLabeled(b.Build(), actions, off, edges)
}

func TestNewLabeled(t *testing.T) {
	// x < 2 → x := x+1 (inc); x = 2 → x := 0 (reset).
	ls := fromRows("counter", NewSpace(Int("x", 3)), []string{"inc", "reset"}, [][]LabeledEdge{
		{{0, 1}}, {{0, 2}}, {{1, 0}},
	}, 0)
	if ls.NumActions() != 2 || ls.ActionName(0) != "inc" || ls.ActionName(1) != "reset" {
		t.Fatal("action registry wrong")
	}
	base := ls.Base()
	if base.NumStates() != 3 || base.NumTransitions() != 3 {
		t.Fatalf("base = %s", base)
	}
	if !ls.Enabled(0, 0) || ls.Enabled(0, 1) || !ls.Enabled(2, 1) {
		t.Fatal("enabledness wrong")
	}
	edges := ls.Edges(2)
	if len(edges) != 1 || edges[0].Action != 1 || edges[0].To != 0 {
		t.Fatalf("edges(2) = %+v", edges)
	}
	if got := base.InitStates(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("init = %v", got)
	}
}

// A τ edge keeps its action enabled; two actions may share a successor.
func TestNewLabeledTauAndSharedSuccessor(t *testing.T) {
	ls := fromRows("tau", NewSpace(Int("x", 2)), []string{"a", "b"}, [][]LabeledEdge{
		{{0, 1}, {1, 1}}, {{1, 1}},
	})
	if !ls.Enabled(1, 1) || ls.Enabled(1, 0) || !ls.Base().HasTransition(1, 1) {
		t.Fatal("τ edge lost")
	}
	if ls.Base().NumTransitions() != 2 || len(ls.Edges(0)) != 2 {
		t.Fatalf("base %s, edges(0) %+v", ls.Base(), ls.Edges(0))
	}
}

func TestNewLabeledRejectsMalformed(t *testing.T) {
	b := NewBuilder("base", 2)
	b.AddTransition(0, 1)
	base := b.Build()
	for name, fn := range map[string]func(){
		"short rows":       func() { NewLabeled(base, []string{"a"}, []int{0, 1}, []LabeledEdge{{0, 1}}) },
		"action range":     func() { NewLabeled(base, []string{"a"}, []int{0, 1, 1}, []LabeledEdge{{1, 1}}) },
		"not a transition": func() { NewLabeled(base, []string{"a"}, []int{0, 1, 1}, []LabeledEdge{{0, 0}}) },
		"unlabeled":        func() { NewLabeled(base, []string{"a"}, []int{0, 0, 0}, nil) },
		"action order": func() {
			NewLabeled(base, []string{"a", "b"}, []int{0, 2, 2}, []LabeledEdge{{1, 1}, {0, 1}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBoxLabeled(t *testing.T) {
	sp := NewSpace(Int("x", 3))
	a := fromRows("a", sp, []string{"up"}, [][]LabeledEdge{{{0, 1}}, nil, nil}, 0, 1, 2)
	b := fromRows("b", sp, []string{"down"}, [][]LabeledEdge{nil, {{0, 0}}, nil})
	boxed := BoxLabeled(a, b)
	if boxed.NumActions() != 2 || boxed.ActionName(1) != "down" {
		t.Fatal("action shift wrong")
	}
	if !boxed.Enabled(1, 1) || boxed.Enabled(1, 0) {
		t.Fatal("enabledness after box wrong")
	}
	if !boxed.Base().HasTransition(0, 1) || !boxed.Base().HasTransition(1, 0) {
		t.Fatal("base transitions wrong")
	}
	// a had all states initial; the union keeps them.
	if boxed.Base().Init().Count() != 3 {
		t.Fatalf("init = %v", boxed.Base().InitStates())
	}
}

func TestPriorityBoxLabeled(t *testing.T) {
	sp := NewSpace(Int("x", 3))
	base := fromRows("base", sp, []string{"spin"}, [][]LabeledEdge{{{0, 1}}, {{0, 2}}, {{0, 0}}}, 0, 1, 2)
	pre := fromRows("pre", sp, []string{"fix"}, [][]LabeledEdge{nil, nil, {{0, 0}}})
	comp := PriorityBoxLabeled(base, pre)
	// At x=2 only the wrapper acts.
	edges := comp.Edges(2)
	if len(edges) != 1 || comp.ActionName(edges[0].Action) != "fix" {
		t.Fatalf("edges(2) = %+v", edges)
	}
	if comp.Enabled(2, 0) {
		t.Fatal("preempted action still enabled")
	}
	if !comp.Enabled(2, 1) {
		t.Fatal("wrapper action not enabled")
	}
	// Elsewhere the base acts.
	if got := comp.Edges(0); len(got) != 1 || comp.ActionName(got[0].Action) != "spin" {
		t.Fatalf("edges(0) = %+v", got)
	}
}

func TestLabeledMismatchPanics(t *testing.T) {
	a := fromRows("a", NewSpace(Int("x", 2)), nil, make([][]LabeledEdge, 2))
	b := fromRows("b", NewSpace(Int("x", 3)), nil, make([][]LabeledEdge, 3))
	for _, fn := range []func(){
		func() { BoxLabeled(a, b) },
		func() { PriorityBoxLabeled(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// randomLabeledRows gives each state, per action with probability 1/2,
// one edge to a random state (τ included).
func randomLabeledRows(rng *rand.Rand, n, numA int) (*LabeledSystem, [][]LabeledEdge) {
	actions := make([]string, numA)
	rows := make([][]LabeledEdge, n)
	for s := range rows {
		for a := range actions {
			if rng.Intn(2) == 0 {
				rows[s] = append(rows[s], LabeledEdge{Action: a, To: rng.Intn(n)})
			}
		}
	}
	return fromRows("r", NewSpace(Int("x", n)), actions, rows), rows
}

// TestQuickLabeledEnabledMatchesEdges: on random labeled systems and
// their compositions, Enabled(s, a) holds exactly when one of s's edges
// carries a; BoxLabeled keeps both operands' edges, and
// PriorityBoxLabeled keeps the wrapper's alone wherever it has one.
func TestQuickLabeledEnabledMatchesEdges(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(6)
		x, xRows := randomLabeledRows(rng, n, 1+rng.Intn(3))
		y, yRows := randomLabeledRows(rng, n, 1+rng.Intn(3))
		shift := x.NumActions()
		for _, preempt := range []bool{false, true} {
			comp := BoxLabeled(x, y)
			if preempt {
				comp = PriorityBoxLabeled(x, y)
			}
			for s := 0; s < n; s++ {
				var want []LabeledEdge
				if !preempt || len(yRows[s]) == 0 {
					want = append(want, xRows[s]...)
				}
				for _, e := range yRows[s] {
					want = append(want, LabeledEdge{Action: e.Action + shift, To: e.To})
				}
				if got := comp.Edges(s); !slices.Equal(got, want) {
					t.Fatalf("trial %d preempt=%v: edges(%d) = %v, want %v", trial, preempt, s, got, want)
				}
				for a := 0; a < comp.NumActions(); a++ {
					labeled := slices.ContainsFunc(want, func(e LabeledEdge) bool { return e.Action == a })
					if comp.Enabled(s, a) != labeled {
						t.Fatalf("trial %d preempt=%v: Enabled(%d, %d) = %v, want %v",
							trial, preempt, s, a, comp.Enabled(s, a), labeled)
					}
				}
			}
		}
	}
}
