package gcl

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/system"
)

// meteredSrc has 10^4 states × 2 actions, more metered steps than one
// context poll interval.
const meteredSrc = `var a : 0..9; var b : 0..9; var c : 0..9; var d : 0..9;
action inc: a < 9 -> a := a + 1;
action mv: b != c -> b := c;`

func TestCompileProgramGasCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog, err := Parse(meteredSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileProgramGas(mc.NewGas(ctx, -1), "m", prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompileProgramGasBudget(t *testing.T) {
	prog, err := Parse(meteredSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileProgramGas(mc.NewGas(nil, 10), "m", prog); !errors.Is(err, mc.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want mc.ErrBudgetExhausted", err)
	}
	// A budget covering the tables (inc reads a: 10 entries; mv reads b
	// and c: 100) and the sweep (one step per state×action) finishes with
	// the unmetered automaton.
	const steps = 10 + 100 + 2*10_000
	if _, err := CompileProgramGas(mc.NewGas(nil, steps-1), "m", prog); !errors.Is(err, mc.ErrBudgetExhausted) {
		t.Fatalf("budget one short: err = %v, want mc.ErrBudgetExhausted", err)
	}
	full := mc.NewGas(nil, steps)
	c, err := CompileProgramGas(full, "m", prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CompileProgram("m", prog)
	if err != nil || !system.Equal(c.System, ref.System) || full.Spent() != steps {
		t.Fatalf("metered compile differs (err %v, spent %d)", err, full.Spent())
	}
}

// TestCompileIntoStaleRows compiles into rows drawn from a pool full of
// stale values: compile must write every element it later reads.
func TestCompileIntoStaleRows(t *testing.T) {
	compileM := func() *system.System {
		prog, err := Parse(meteredSrc)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileProgram("m", prog)
		if err != nil {
			t.Fatal(err)
		}
		return c.System
	}
	want := compileM()
	for _, size := range []int{want.NumStates() + 1, want.NumTransitions()} {
		for i := 0; i < 4; i++ {
			stale := make([]int, size)
			for j := range stale {
				stale[j] = -7
			}
			system.PutInts(stale)
		}
	}
	if got := compileM(); !system.Equal(got, want) {
		t.Fatalf("compiling into recycled rows gave %s, want %s", got, want)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"var x : bool;\ninit 3;", "init predicate must be boolean"},
		{"var x : bool;\naction a: 3 -> x := true;", "must be boolean"},
		{"var x : bool;\naction a: y -> x := true;", `undeclared variable "y"`},
		{"var x : bool;\naction a: x -> y := true;", `undeclared variable "y"`},
		{"var x : bool;\naction a: x -> x := 3;", "cannot assign int expression to bool"},
		{"var x : 0..3;\naction a: x == 0 -> x := true;", "cannot assign bool expression to int"},
		{"var x : 0..3;\naction a: x -> x := 0;", "must be boolean"},
		{"var x : bool;\naction a: !3 == 3 -> x := true;", "requires bool"},
		{"var x : bool;\naction a: -x > 0 -> x := true;", "requires int"},
		{"var x : bool;\naction a: x + 1 > 0 -> x := true;", "requires int operands"},
		{"var x : bool;\nvar y : 0..2;\naction a: x == y -> x := true;", "same-typed operands"},
		{"var x : 0..2;\naction a: x && x > 0 -> x := 0;", "requires bool operands"},
		{"var x : 0..2;\naction a: x < 1 -> x := 0; x := 1;", "assigns \"x\" twice"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		err = Check(prog)
		if err == nil {
			t.Errorf("Check(%q) passed, want error with %q", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Check(%q) = %q, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestCompileCounter(t *testing.T) {
	c, err := Compile("counter", `
var x : 0..3;
init x == 0;
action inc: x < 3 -> x := x + 1;
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := c.System
	if sys.NumStates() != 4 || sys.NumTransitions() != 3 {
		t.Fatalf("%s", sys)
	}
	if !sys.HasTransition(0, 1) || !sys.Terminal(3) {
		t.Fatal("transitions wrong")
	}
	if got := sys.InitStates(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("init = %v", got)
	}
}

// TestCompileLabeled: each enabled action contributes one edge labeled
// with it, in action order; a τ step is kept as a self-loop edge; two
// actions reaching the same successor keep one edge each; and without an
// init predicate every state is initial.
func TestCompileLabeled(t *testing.T) {
	prog, err := Parse(`
var x : 0..2;
action inc: x < 2 -> x := x + 1;
action tau: x == 1 -> x := x;
action top: x >= 1 -> x := 2;
`)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := CompileLabeled("labeled", prog)
	if err != nil {
		t.Fatal(err)
	}
	if ls.NumActions() != 3 || ls.ActionName(0) != "inc" || ls.ActionName(2) != "top" {
		t.Fatal("action registry wrong")
	}
	want := [][]system.LabeledEdge{
		{{Action: 0, To: 1}},
		{{Action: 0, To: 2}, {Action: 1, To: 1}, {Action: 2, To: 2}},
		{{Action: 2, To: 2}},
	}
	for s, row := range want {
		if got := ls.Edges(s); !slices.Equal(got, row) {
			t.Fatalf("edges(%d) = %v, want %v", s, got, row)
		}
	}
	if !ls.Enabled(1, 1) || ls.Enabled(0, 1) || ls.Enabled(2, 0) {
		t.Fatal("enabledness wrong")
	}
	base := ls.Base()
	if base.NumTransitions() != 4 || !base.HasTransition(1, 1) || base.Init().Count() != 3 {
		t.Fatalf("base = %s", base)
	}
	if _, err := CompileLabeled("bad", &Program{Vars: prog.Vars, Actions: []ActionDecl{{Name: "a", Guard: &BoolLit{Value: true}}}}); err == nil {
		t.Fatal("unchecked program compiled")
	}
}

func TestCompileSimultaneousAssignment(t *testing.T) {
	c, err := Compile("swap", `
var x : bool;
var y : bool;
action swap: x != y -> x := y; y := x;
`)
	if err != nil {
		t.Fatal(err)
	}
	sp := c.Space
	// From (x=1,y=0): simultaneous swap gives (x=0,y=1), not (0,0).
	from := sp.Encode(system.Vals{1, 0})
	to := sp.Encode(system.Vals{0, 1})
	if !c.System.HasTransition(from, to) {
		t.Fatal("simultaneous swap missing")
	}
	if c.System.HasTransition(from, sp.Encode(system.Vals{0, 0})) {
		t.Fatal("sequential-assignment artifact present")
	}
}

func TestCompileRangeOffset(t *testing.T) {
	c, err := Compile("neg", `
var x : -2..2;
init x == -2;
action up: x < 2 -> x := x + 1;
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.System.NumStates() != 5 || c.System.NumTransitions() != 4 {
		t.Fatalf("%s", c.System)
	}
	// init state is encoded 0 (x=-2).
	if got := c.System.InitStates(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("init = %v", got)
	}
	if got := c.Space.StateString(0); got != "x=-2" {
		t.Fatalf("StateString = %q", got)
	}
}

func TestCompileDomainViolation(t *testing.T) {
	_, err := Compile("bad", `
var x : 0..2;
action over: x == 2 -> x := x + 1;
`)
	if err == nil || !strings.Contains(err.Error(), "outside 0..2") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileDivisionByZero(t *testing.T) {
	_, err := Compile("div", `
var x : 0..2;
action d: 1 / x == 1 -> x := 0;
`)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestFloorModSemantics(t *testing.T) {
	// (x - 1) % 3 must be 2 when x == 0 (the paper's ⊖ under modulo 3).
	c, err := Compile("mod", `
var x : 0..2;
action dec: true -> x := (x - 1) % 3;
`)
	if err != nil {
		t.Fatal(err)
	}
	if !c.System.HasTransition(0, 2) {
		t.Fatal("(0-1)%3 should wrap to 2")
	}
	if !c.System.HasTransition(2, 1) || !c.System.HasTransition(1, 0) {
		t.Fatal("decrement transitions wrong")
	}
}

func TestShortCircuitPreventsEvalError(t *testing.T) {
	// x == 0 short-circuits the division; this must compile.
	c, err := Compile("sc", `
var x : 0..2;
action d: x == 0 || 2 / x == 2 -> x := 0;
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.System.NumTransitions() == 0 {
		t.Fatal("no transitions")
	}
}

// TestCompiledDijkstra3IsSelfStabilizing is the end-to-end sanity check
// tying the whole pipeline together: parse the paper's 3-state system for
// three processes from concrete syntax, compile to an automaton, and run
// the stabilization checker on it.
func TestCompiledDijkstra3IsSelfStabilizing(t *testing.T) {
	c, err := Compile("dijkstra3", dijkstra3Src)
	if err != nil {
		t.Fatal(err)
	}
	if c.System.NumStates() != 27 {
		t.Fatalf("states = %d", c.System.NumStates())
	}
	rep := core.SelfStabilizing(c.System)
	if !rep.Holds {
		t.Fatalf("Dijkstra-3 (N=2) not self-stabilizing: %s\n%s",
			rep.Verdict, rep.FormatWitness(c.System))
	}
}

func TestEvalUnknownExprNodes(t *testing.T) {
	prog := &Program{Vars: []VarDecl{{Name: "x", Lo: 0, Hi: 1}}}
	if _, err := Eval(prog, nil2expr(), make(system.Vals, 1)); err == nil {
		t.Fatal("unknown node accepted")
	}
}

// nil2expr builds an expression node type Eval does not know.
type bogusExpr struct{}

func (bogusExpr) String() string { return "bogus" }
func (bogusExpr) Type() Type     { return TypeInvalid }
func (bogusExpr) Position() Pos  { return Pos{} }

func nil2expr() Expr { return bogusExpr{} }

// hugeSrc declares 8 variables over 0..999999: 10^48 states, past the
// 2^62 a state space can index.
const hugeSrc = `
var a : 0..999999; var b : 0..999999; var c : 0..999999; var d : 0..999999;
var e : 0..999999; var f : 0..999999; var g : 0..999999; var h : 0..999999;
init a == 0;
action t: true -> a := a;
`

// TestCompileOverflowingSpaceErrors: a program whose declarations span
// more than 2^62 states fails to compile with an error instead of
// panicking in the space constructor, and StateBound saturates on it.
func TestCompileOverflowingSpaceErrors(t *testing.T) {
	prog, err := Parse(hugeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := StateBound(prog, 1<<62); got != 1<<62+1 {
		t.Fatalf("StateBound = %d, want the saturated 2^62+1", got)
	}
	if got := StateBound(prog, 1<<20); got != 1<<20+1 {
		t.Fatalf("StateBound under 2^20 = %d", got)
	}
	if _, err := CompileProgram("huge", prog); err == nil || !strings.Contains(err.Error(), "2^62") {
		t.Fatalf("compile: err = %v, want the overflow named", err)
	}
	small, err := Parse("var x : 0..2; var y : bool; action t: true -> x := x;")
	if err != nil {
		t.Fatal(err)
	}
	if got := StateBound(small, 100); got != 6 {
		t.Fatalf("StateBound = %d, want 6", got)
	}
	if !SameShape(small, small) || SameShape(small, prog) {
		t.Fatal("SameShape disagrees with the declarations")
	}
}
