package gcl

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/system"
)

// referenceCompile is the enumerator the lowered sweep replaced, kept as
// the differential oracle: it decodes every state, evaluates guards and
// right-hand sides with the tree-walking Eval, and collects transitions
// in a system.Builder. It also returns per state the labeled edges, one
// per enabled action in action order.
func referenceCompile(name string, prog *Program) (*system.System, [][]system.LabeledEdge, error) {
	if err := Check(prog); err != nil {
		return nil, nil, fmt.Errorf("gcl: checking %s: %w", name, err)
	}
	sp := SpaceOf(prog)
	b := system.NewSpaceBuilder(name, sp)
	rows := make([][]system.LabeledEdge, sp.Size())
	env := make(system.Vals, len(prog.Vars))
	next := make(system.Vals, len(prog.Vars))
	for s := 0; s < sp.Size(); s++ {
		env = sp.Decode(s, env)
		if prog.Init == nil {
			b.AddInit(s)
		} else {
			isInit, err := EvalBool(prog, prog.Init, env)
			if err != nil {
				return nil, nil, evalFailure(sp, s, err)
			}
			if isInit {
				b.AddInit(s)
			}
		}
		for ai := range prog.Actions {
			a := &prog.Actions[ai]
			enabled, err := EvalBool(prog, a.Guard, env)
			if err != nil {
				return nil, nil, evalFailure(sp, s, err)
			}
			if !enabled {
				continue
			}
			copy(next, env)
			for _, as := range a.Assigns {
				v, err := Eval(prog, as.Expr, env)
				if err != nil {
					return nil, nil, evalFailure(sp, s, err)
				}
				vi := varIndex(prog, as.Name)
				enc, err := encodeValue(prog.Vars[vi], v)
				if err != nil {
					return nil, nil, &EvalError{Pos: as.Pos,
						Msg:   fmt.Sprintf("action %q: %v", a.Name, err),
						State: sp.StateString(s)}
				}
				next[vi] = enc
			}
			b.AddTransition(s, sp.Encode(next))
			rows[s] = append(rows[s], system.LabeledEdge{Action: ai, To: sp.Encode(next)})
		}
	}
	return b.Build(), rows, nil
}

// assertSameAsReference compiles src both ways and demands the same
// automaton or the same error text; where it compiles, CompileLabeled
// must yield the same automaton with the reference's labeled edges. It
// reports whether src compiled.
func assertSameAsReference(t *testing.T, name, src string) bool {
	t.Helper()
	p1, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p2, _ := Parse(src)
	got, gotErr := CompileProgram(name, p1)
	want, wantRows, wantErr := referenceCompile(name, p2)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: CompileProgram error %v, reference error %v", name, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text differs:\n got  %s\n want %s", name, gotErr, wantErr)
		}
		return false
	}
	if !system.Equal(got.System, want) {
		t.Fatalf("%s: lowered enumeration differs from reference: %s vs %s; first extra transitions %v, missing %v",
			name, got.System, want, system.DiffTransitions(got.System, want, 3), system.DiffTransitions(want, got.System, 3))
	}
	if got.System.Name() != want.Name() || !got.System.Space().SameShape(want.Space()) {
		t.Fatalf("%s: name or space differs", name)
	}
	p3, _ := Parse(src)
	ls, err := CompileLabeled(name, p3)
	if err != nil {
		t.Fatalf("%s: CompileLabeled: %v", name, err)
	}
	if !system.Equal(ls.Base(), got.System) || ls.Base().Name() != name || ls.NumActions() != len(p3.Actions) {
		t.Fatalf("%s: CompileLabeled's base or actions differ from CompileProgram's", name)
	}
	for ai, a := range p3.Actions {
		if ls.ActionName(ai) != a.Name {
			t.Fatalf("%s: action %d named %q, want %q", name, ai, ls.ActionName(ai), a.Name)
		}
	}
	for s, row := range wantRows {
		if edges := ls.Edges(s); !slices.Equal(edges, row) {
			t.Fatalf("%s: labeled edges of %s are %v, Eval gives %v", name, want.StateString(s), edges, row)
		}
	}
	// Released rows come back from the pool holding the old system's
	// values: a compile into them must still yield the reference.
	got.System.Release()
	p4, _ := Parse(src)
	if again, err := CompileProgram(name, p4); err != nil || !system.Equal(again.System, want) {
		t.Fatalf("%s: compiling after a release differs from the reference (err %v)", name, err)
	}
	return true
}

func TestCompileMatchesReferenceExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "gcl", "*.gcl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAsReference(t, filepath.Base(f), string(src))
	}
}

func TestCompileMatchesReferenceFailures(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"div-guard", "var x : 0..2;\nvar z : 0..1;\naction a: 6 / x == 3 -> x := 0;"},
		{"mod-rhs", "var x : 0..2;\nvar y : 0..2;\naction a: true -> y := (y + 1) % x; x := 1;"},
		{"div-init", "var x : 0..2;\ninit 1 / x == 1;\naction a: true -> x := 0;"},
		{"escape", "var x : -1..2;\nvar z : 0..1;\naction a: x > 0 -> x := x + 1;"},
		{"escape-second", "var x : 0..2;\nvar y : 0..1;\naction a: true -> x := 1; y := x;"},
		{"fault-after-escape", "var x : 0..2;\naction a: true -> x := 3 + 1 / x;"},
		// Faults at some projection points only: y == 1 divides by zero
		// in the guard, once the sweep reaches that digit.
		{"partial-div-guard", "var x : 0..3;\nvar y : 0..2;\nvar z : 0..1;\naction a: x / (y - 1) > 0 -> x := 0;"},
		// The same in a right-hand side, behind a guard that is false
		// at the faulting points until x reaches 3.
		{"partial-div-rhs", "var x : 0..3;\nvar y : 0..2;\nvar z : 0..1;\naction a: x == 3 -> y := x / (y - 1) % 3;"},
		// A fault in the second action, after the first is tabulated.
		{"partial-mod-second", "var x : 0..3;\nvar y : 0..2;\nvar z : 0..1;\naction a: x < 3 -> x := x + 1;\naction b: true -> y := x % (y - 2);"},
		// Init faults in a conjunct, behind a true one (first at x = 1)
		// and ahead of one (at state 0).
		{"init-fault-after-true", "var x : 0..2;\nvar y : 0..2;\ninit x == 1 && 1 / y == 1;\naction a: true -> x := 0;"},
		{"init-fault-first", "var x : 0..2;\nvar y : 0..2;\ninit 1 / y == 1 && x == 1;\naction a: true -> x := 0;"},
		// A faulting conjunct that reads every variable has no table.
		{"init-fault-untabulated", "var x : 0..2;\nvar y : 0..2;\ninit x == 1 && 1 / (x + y - 2) == 1;\naction a: true -> x := 0;"},
	} {
		if assertSameAsReference(t, tc.name, tc.src) {
			t.Errorf("%s: compiled, want a runtime failure", tc.name)
		}
	}
}

// The table-driven sweep against the reference on programs that
// compile: boolean and offset domains, an action with an empty read set
// apart from its target, an action that reads every variable (too large
// to tabulate), unused variables, and faults that only some projection
// points reach but no enabled state does.
func TestCompileMatchesReferenceTables(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"bool-ternary", "var b : bool;\nvar x : 0..3;\naction a: b ? x < 3 : x > 0 -> x := b ? x + 1 : x - 1; b := !b;"},
		{"offset-domains", "var x : -2..2;\nvar y : 3..5;\nvar b : bool;\naction a: x < 2 && y > 3 -> x := x + 1; y := y - 1;\naction c: b == (x > 0) -> b := !b;"},
		{"constant-action", "var x : 0..3;\nvar y : 0..2;\naction set: true -> x := 2;\naction inc: y < 2 -> y := y + 1;"},
		{"reads-all", "var x : 0..2;\nvar y : 0..2;\nvar z : 0..2;\naction all: x + y + z < 6 -> z := (x + y + z + 1) % 3;\naction one: x < 2 -> x := x + 1;"},
		{"unused-vars", "var u : 0..4;\nvar x : 0..2;\nvar w : bool;\ninit x == 0;\naction a: x < 2 -> x := x + 1;\naction b: x == 2 -> x := 0;"},
		{"guarded-fault", "var x : 0..3;\nvar y : 0..2;\nvar z : bool;\naction a: y != 1 && x / (y - 1) >= 0 -> x := (x + 1) % 4;\naction b: y != 1 -> y := 2 - y;"},
		{"stutter", "var x : 0..2;\nvar y : 0..2;\naction s: x == y -> x := y;\naction t: true -> y := (y + 1) % 3;"},
		{"single-state", "var x : 0..0;\naction a: true -> x := 0;"},
		// Init conjuncts: one that reads every variable (no table), a
		// nested chain, a bare boolean, a single-state init.
		{"init-reads-all", "var x : 0..2;\nvar y : 0..2;\ninit (x + y) % 3 == 0 && y < 2;\naction a: x < 2 -> x := x + 1;"},
		{"init-nested", "var x : 0..3;\nvar y : 0..2;\nvar b : bool;\ninit x < 2 && (y == 0 && !b);\naction a: x < 3 -> x := x + 1;\naction c: true -> b := !b;"},
		{"init-bool", "var b : bool;\nvar x : -1..1;\ninit b && x == 0;\naction a: x < 1 -> x := x + 1; b := !b;"},
		{"init-single-state", "var x : 0..2;\nvar y : 0..2;\ninit x == 2 && y == 1;\naction a: x > 0 -> x := x - 1;\naction b: y > 0 -> y := y - 1;"},
	} {
		if !assertSameAsReference(t, tc.name, tc.src) {
			t.Errorf("%s: failed to compile", tc.name)
		}
	}
}
