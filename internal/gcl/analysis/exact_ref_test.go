package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gcl"
	"repro/internal/ring"
	"repro/internal/system"
)

// referenceExact is the exact tier's sweep the way it ran before the
// table-driven cursor, kept as the differential oracle: it decodes every
// state, evaluates each guard and right-hand side with the tree-walking
// gcl.Eval, and derives the same facts runExact does.
func referenceExact(prog *gcl.Program) *exactFacts {
	sp := gcl.SpaceOf(prog)
	n := sp.Size()
	numA := len(prog.Actions)
	f := &exactFacts{
		states:     n,
		space:      sp,
		enabled:    make([]int, numA),
		reachEnab:  make([]int, numA),
		stutters:   make([]bool, numA),
		escapes:    make([]escapeSet, numA),
		guardError: make([]int, numA),
		overlaps:   make([]overlap, numA*numA),
	}
	for ai := range prog.Actions {
		f.stutters[ai] = true
		f.escapes[ai] = escapeSet{
			count:   make([]int, len(prog.Actions[ai].Assigns)),
			witness: make([]int, len(prog.Actions[ai].Assigns)),
		}
	}
	succ := make([][]int, n)
	var initStates []int
	env := make(system.Vals, len(prog.Vars))
	next := make(system.Vals, len(prog.Vars))
	nextOf := make([]int, numA)
	for s := 0; s < n; s++ {
		env = sp.Decode(s, env)
		if prog.Init != nil {
			if on, err := gcl.EvalBool(prog, prog.Init, env); err == nil && on {
				f.initCount++
				initStates = append(initStates, s)
			}
		}
		var enabledHere []int
		for ai := range prog.Actions {
			a := &prog.Actions[ai]
			on, err := gcl.EvalBool(prog, a.Guard, env)
			if err != nil {
				f.guardError[ai]++
				continue
			}
			if !on {
				continue
			}
			f.enabled[ai]++
			copy(next, env)
			faulted := false
			for asi, as := range a.Assigns {
				v, err := gcl.Eval(prog, as.Expr, env)
				if err != nil {
					faulted = true
					continue
				}
				vi := identIndex(prog, as.Name)
				decl := prog.Vars[vi]
				lo, hi := decl.Lo, decl.Hi
				if decl.IsBool {
					lo, hi = 0, 1
				}
				if v < lo || v > hi {
					faulted = true
					if f.escapes[ai].count[asi] == 0 {
						f.escapes[ai].witness[asi] = s
					}
					f.escapes[ai].count[asi]++
					continue
				}
				next[vi] = v - lo
			}
			nextOf[ai] = -1
			if !faulted {
				nextOf[ai] = sp.Encode(next)
				succ[s] = append(succ[s], nextOf[ai])
			}
			if nextOf[ai] != s {
				f.stutters[ai] = false
			}
			enabledHere = append(enabledHere, ai)
		}
		for x := range enabledHere {
			for _, j := range enabledHere[x+1:] {
				i := enabledHere[x]
				if nextOf[i] == nextOf[j] {
					continue
				}
				o := &f.overlaps[i*numA+j]
				if o.count == 0 {
					o.witness = s
				}
				o.count++
			}
		}
	}
	if prog.Init == nil {
		return f
	}
	reachable := make([]bool, n)
	queue := initStates
	for _, s := range initStates {
		reachable[s] = true
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range succ[s] {
			if !reachable[t] {
				reachable[t] = true
				queue = append(queue, t)
			}
		}
	}
	for s := 0; s < n; s++ {
		if !reachable[s] {
			continue
		}
		env = sp.Decode(s, env)
		for ai := range prog.Actions {
			if on, err := gcl.EvalBool(prog, prog.Actions[ai].Guard, env); err == nil && on {
				f.reachEnab[ai]++
			}
		}
	}
	return f
}

// exactMismatch runs the exact tier and the reference on a checked
// program and describes how their facts or exact diagnostics differ, or
// returns "" when they agree.
func exactMismatch(prog *gcl.Program) string {
	got, err := runExact(prog, nil)
	if err != nil {
		return fmt.Sprintf("runExact: %v", err)
	}
	want := referenceExact(prog)
	if got.space.Size() != want.space.Size() {
		return fmt.Sprintf("space size %d, reference %d", got.space.Size(), want.space.Size())
	}
	g, w := *got, *want
	g.space, w.space = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("exact facts differ from the reference:\n got  %+v\n want %+v", g, w)
	}
	if gd, wd := exactDiags(prog, got, 0), exactDiags(prog, want, 0); !reflect.DeepEqual(gd, wd) {
		return fmt.Sprintf("exact diagnostics differ:\n got  %v\n want %v", gd, wd)
	}
	return ""
}

func assertExactMatchesReference(t *testing.T, name, src string) {
	t.Helper()
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := gcl.Check(prog); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if msg := exactMismatch(prog); msg != "" {
		t.Fatalf("%s: %s", name, msg)
	}
}

func TestExactMatchesReferenceExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "gcl", "*.gcl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		assertExactMatchesReference(t, filepath.Base(f), string(src))
	}
}

func TestExactMatchesReferenceRings(t *testing.T) {
	for n := 2; n <= 5; n++ {
		assertExactMatchesReference(t, fmt.Sprintf("d3-N%d", n), ring.Dijkstra3GCL(n))
		assertExactMatchesReference(t, fmt.Sprintf("a3-N%d", n), ring.AggressiveThreeGCL(n))
		assertExactMatchesReference(t, fmt.Sprintf("k3-N%d", n), ring.KStateGCL(n, 3))
	}
}

// The programs the compile differential runs on, faulting ones
// included: the linter tolerates what compilation rejects.
func TestExactMatchesReferenceCorpus(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"div-guard", "var x : 0..2;\nvar z : 0..1;\naction a: 6 / x == 3 -> x := 0;"},
		{"mod-rhs", "var x : 0..2;\nvar y : 0..2;\naction a: true -> y := (y + 1) % x; x := 1;"},
		{"div-init", "var x : 0..2;\ninit 1 / x == 1;\naction a: true -> x := 0;"},
		{"escape", "var x : -1..2;\nvar z : 0..1;\naction a: x > 0 -> x := x + 1;"},
		{"escape-second", "var x : 0..2;\nvar y : 0..1;\naction a: true -> x := 1; y := x;"},
		{"fault-after-escape", "var x : 0..2;\naction a: true -> x := 3 + 1 / x;"},
		{"partial-div-guard", "var x : 0..3;\nvar y : 0..2;\nvar z : 0..1;\ninit x == 0;\naction a: x / (y - 1) > 0 -> x := 0;\naction b: x < 3 -> x := x + 1;"},
		{"partial-div-rhs", "var x : 0..3;\nvar y : 0..2;\nvar z : 0..1;\ninit y == 0;\naction a: x == 3 -> y := x / (y - 1) % 3;\naction b: true -> x := (x + 1) % 4;"},
		{"bool-ternary", "var b : bool;\nvar x : 0..3;\naction a: b ? x < 3 : x > 0 -> x := b ? x + 1 : x - 1; b := !b;"},
		{"offset-domains", "var x : -2..2;\nvar y : 3..5;\nvar b : bool;\ninit x == -2;\naction a: x < 2 && y > 3 -> x := x + 1; y := y - 1;\naction c: b == (x > 0) -> b := !b;"},
		{"constant-action", "var x : 0..3;\nvar y : 0..2;\ninit y == 0;\naction set: true -> x := 2;\naction inc: y < 2 -> y := y + 1;"},
		{"reads-all", "var x : 0..2;\nvar y : 0..2;\nvar z : 0..2;\naction all: x + y + z < 6 -> z := (x + y + z + 1) % 3;\naction one: x < 2 -> x := x + 1;"},
		{"unused-vars", "var u : 0..4;\nvar x : 0..2;\nvar w : bool;\ninit x == 0;\naction a: x < 2 -> x := x + 1;\naction b: x == 2 -> x := 0;"},
		{"stutter", "var x : 0..2;\nvar y : 0..2;\ninit x == 0 && y == 0;\naction s: x == y -> x := y;\naction t: true -> y := (y + 1) % 3;"},
		// init reaches three of the twelve states. Of the actions enabled
		// there, esc escapes at x = 2 and div's guard faults at x = 1;
		// hop is enabled only off the reachable set.
		{"partial-reach", "var x : 0..3;\nvar y : 0..2;\ninit x == 0 && y == 0;\naction inc: x < 2 -> x := x + 1;\naction hop: x == 3 -> y := (y + 1) % 3;\naction esc: x == 2 -> y := y + 3;\naction div: y == 0 && x / (x - 1) >= 0 -> x := 0;"},
		{"overlap", "var x : 0..3;\nvar z : bool;\naction up: x < 3 -> x := x + 1;\naction down: x > 0 -> x := x - 1;\naction same: x > 1 -> x := x - 1;"},
		// Pairs that share a target: where both fault, both stutter, one
		// faults, or both move (to the same state or not); and a pair with
		// disjoint targets where both fault.
		{"shared-target", "var x : 0..3;\nvar y : 0..2;\ninit x == 1;\naction inc: x < 3 -> x := x + 1;\naction inv: y < 2 -> x := 3 / x;\naction keep: x == 2 -> x := x;\naction half: x > 0 -> x := 3 / x; y := y / x;\naction wrap: true -> y := 2 / x;"},
	} {
		assertExactMatchesReference(t, tc.name, tc.src)
	}
}
