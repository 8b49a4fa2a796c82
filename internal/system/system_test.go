package system

import (
	"strings"
	"testing"
)

// chain builds the system s0 -> s1 -> ... -> s(n-1) with init {0}.
func chain(t *testing.T, name string, n int) *System {
	t.Helper()
	b := NewBuilder(name, n)
	for i := 0; i+1 < n; i++ {
		b.AddTransition(i, i+1)
	}
	b.AddInit(0)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	sys := chain(t, "chain", 4)
	if sys.NumStates() != 4 || sys.NumTransitions() != 3 {
		t.Fatalf("got %s", sys)
	}
	if !sys.HasTransition(0, 1) || sys.HasTransition(1, 0) {
		t.Fatal("transition relation wrong")
	}
	if !sys.Terminal(3) || sys.Terminal(0) {
		t.Fatal("terminal detection wrong")
	}
	if !sys.IsInit(0) || sys.IsInit(1) {
		t.Fatal("init set wrong")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder("dup", 2)
	b.AddTransition(0, 1)
	b.AddTransition(0, 1)
	sys := b.Build()
	if sys.NumTransitions() != 1 {
		t.Fatalf("NumTransitions = %d, want 1", sys.NumTransitions())
	}
	if got := sys.Succ(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Succ(0) = %v", got)
	}
}

func TestSuccSorted(t *testing.T) {
	b := NewBuilder("s", 5)
	for _, x := range []int{4, 2, 3, 1} {
		b.AddTransition(0, x)
	}
	sys := b.Build()
	got := sys.Succ(0)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Succ not sorted: %v", got)
		}
	}
}

func TestSelfLoopKept(t *testing.T) {
	b := NewBuilder("loop", 1)
	b.AddTransition(0, 0)
	sys := b.Build()
	if !sys.HasTransition(0, 0) || sys.Terminal(0) {
		t.Fatal("self loop lost")
	}
}

func TestBoxUnionsTransitions(t *testing.T) {
	a := NewBuilder("a", 3)
	a.AddTransition(0, 1)
	a.AddInit(0)
	w := NewBuilder("w", 3)
	w.AddTransition(1, 2)
	boxed := Box(a.Build(), w.Build())
	if !boxed.HasTransition(0, 1) || !boxed.HasTransition(1, 2) {
		t.Fatal("box lost transitions")
	}
	if boxed.NumTransitions() != 2 {
		t.Fatalf("NumTransitions = %d", boxed.NumTransitions())
	}
	// Wrapper has all states initial, so init is a's init.
	if !boxed.IsInit(0) || boxed.IsInit(1) || boxed.IsInit(2) {
		t.Fatalf("box init = %v", boxed.InitStates())
	}
	if got := boxed.Name(); got != "a [] w" {
		t.Fatalf("Name = %q", got)
	}
}

func TestBoxOverlappingTransitions(t *testing.T) {
	a := NewBuilder("a", 2)
	a.AddTransition(0, 1)
	b := NewBuilder("b", 2)
	b.AddTransition(0, 1)
	boxed := Box(a.Build(), b.Build())
	if boxed.NumTransitions() != 1 {
		t.Fatalf("NumTransitions = %d, want deduped 1", boxed.NumTransitions())
	}
}

func TestBoxAll(t *testing.T) {
	mk := func(name string, from, to int) *System {
		b := NewBuilder(name, 4)
		b.AddTransition(from, to)
		return b.Build()
	}
	sys := BoxAll(mk("x", 0, 1), mk("y", 1, 2), mk("z", 2, 3))
	if sys.NumTransitions() != 3 {
		t.Fatalf("NumTransitions = %d", sys.NumTransitions())
	}
}

func TestBoxSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Box(chain(t, "a", 2), chain(t, "b", 3))
}

func TestTransitionsEqualAndDiff(t *testing.T) {
	a := chain(t, "a", 3)
	b := chain(t, "b", 3)
	if !TransitionsEqual(a, b) {
		t.Fatal("identical chains not equal")
	}
	bb := NewBuilder("c", 3)
	bb.AddTransition(0, 1)
	bb.AddTransition(0, 2)
	bb.AddInit(0)
	c := bb.Build()
	if TransitionsEqual(a, c) {
		t.Fatal("different systems reported equal")
	}
	diff := DiffTransitions(c, a, 0)
	if len(diff) != 1 || diff[0] != [2]int{0, 2} {
		t.Fatalf("DiffTransitions = %v", diff)
	}
}

func TestEqualChecksInit(t *testing.T) {
	a := chain(t, "a", 3)
	b := a.WithInit([]int{1})
	if Equal(a, b) {
		t.Fatal("Equal ignored init difference")
	}
	if !TransitionsEqual(a, b) {
		t.Fatal("WithInit changed transitions")
	}
}

func TestRename(t *testing.T) {
	a := chain(t, "a", 3)
	b := a.Rename("fresh")
	if b.Name() != "fresh" || a.Name() != "a" {
		t.Fatal("rename wrong")
	}
	if !TransitionsEqual(a, b) {
		t.Fatal("rename changed transitions")
	}
}

func TestInitReturnsCopy(t *testing.T) {
	a := chain(t, "a", 3)
	got := a.Init()
	got.Add(2)
	if a.IsInit(2) {
		t.Fatal("Init exposed internal storage")
	}
}

func TestStateStringRawAndSpace(t *testing.T) {
	raw := chain(t, "raw", 2)
	if got := raw.StateString(1); got != "s1" {
		t.Fatalf("StateString = %q", got)
	}
	sys := NewSpaceBuilder("sys", NewSpace(Bool("t"))).Build()
	if got := sys.StateString(1); got != "t=true" {
		t.Fatalf("StateString = %q", got)
	}
}

func TestWriteDOT(t *testing.T) {
	sys := chain(t, "dot", 2)
	var b strings.Builder
	if err := WriteDOT(&b, sys, func(s int) bool { return s == 1 }); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "doublecircle", "n0 -> n1", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
