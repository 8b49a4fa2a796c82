package system

import (
	"strings"
	"testing"
)

func TestStripSelfLoops(t *testing.T) {
	b := NewBuilder("loopy", 4)
	b.AddTransition(0, 0)
	b.AddTransition(0, 1)
	b.AddTransition(1, 1)
	b.AddTransition(2, 3)
	b.AddInit(0)
	sys := b.Build()

	stripped := sys.StripSelfLoops()
	if stripped.HasTransition(0, 0) || stripped.HasTransition(1, 1) {
		t.Fatal("self loops survived")
	}
	if !stripped.HasTransition(0, 1) || !stripped.HasTransition(2, 3) {
		t.Fatal("real transitions lost")
	}
	if stripped.NumTransitions() != 2 {
		t.Fatalf("NumTransitions = %d", stripped.NumTransitions())
	}
	if !stripped.Terminal(1) {
		t.Fatal("state 1 should become terminal")
	}
	// Original untouched.
	if !sys.HasTransition(0, 0) {
		t.Fatal("StripSelfLoops mutated the original")
	}
	// Init preserved.
	if !stripped.IsInit(0) {
		t.Fatal("init lost")
	}
	// Idempotent on loop-free systems (and shares nothing harmful).
	again := stripped.StripSelfLoops()
	if !TransitionsEqual(again, stripped) {
		t.Fatal("strip not idempotent")
	}
}

func TestSystemStringAndSpaceAccessors(t *testing.T) {
	sp := NewSpace(Bool("t"))
	b := NewSpaceBuilder("demo", sp)
	b.AddInit(0)
	b.AddInit(1)
	sys := b.Build()
	if sys.Space() != sp {
		t.Fatal("Space accessor wrong")
	}
	s := sys.String()
	for _, want := range []string{"demo", "|Σ|=2", "|T|=0", "|I|=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String = %q", s)
		}
	}
}

func TestVarCustomFormatter(t *testing.T) {
	v := Var{Name: "phase", Card: 2, Fmt: func(x int) string {
		if x == 0 {
			return "idle"
		}
		return "busy"
	}}
	sp := NewSpace(v)
	if got := sp.StateString(1); got != "phase=busy" {
		t.Fatalf("StateString = %q", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBuilder("bad", 0) },
		func() {
			b := NewBuilder("bad", 2)
			b.AddTransition(0, 5)
		},
		func() {
			b := NewBuilder("bad", 2)
			b.AddInit(-1)
		},
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

func TestMergeSortedEdgeCases(t *testing.T) {
	// Exercised through Box with asymmetric successor lists.
	a := NewBuilder("a", 4)
	a.AddTransition(0, 1)
	a.AddTransition(0, 3)
	b := NewBuilder("b", 4)
	b.AddTransition(0, 2)
	boxed := Box(a.Build(), b.Build())
	got := boxed.Succ(0)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Succ = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Succ = %v", got)
		}
	}
	// One side empty.
	if got := boxed.Succ(1); len(got) != 0 {
		t.Fatalf("Succ(1) = %v", got)
	}
}

func TestPriorityBoxSemantics(t *testing.T) {
	base := NewBuilder("base", 3)
	base.AddTransition(0, 1)
	base.AddTransition(1, 2)
	base.AddInit(0)
	pre := NewBuilder("pre", 3)
	pre.AddTransition(1, 0) // preempts base at state 1
	comp := PriorityBox(base.Build(), pre.Build())
	if !comp.HasTransition(0, 1) {
		t.Fatal("base transition lost where wrapper idle")
	}
	if comp.HasTransition(1, 2) {
		t.Fatal("preempted base transition survived")
	}
	if !comp.HasTransition(1, 0) {
		t.Fatal("wrapper transition missing")
	}
	if !strings.Contains(comp.Name(), "<]") {
		t.Fatalf("Name = %q", comp.Name())
	}
	if got := comp.InitStates(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("init = %v", got)
	}
}

func TestPriorityBoxMismatchPanics(t *testing.T) {
	a := NewBuilder("a", 2).Build()
	b := NewBuilder("b", 3).Build()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PriorityBox(a, b)
}

func TestSpaceOverflowPanics(t *testing.T) {
	vars := make([]Var, 64)
	for i := range vars {
		vars[i] = Int(strings.Repeat("x", 1)+string(rune('a'+i%26))+string(rune('0'+i/26)), 8)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	NewSpace(vars...)
}
