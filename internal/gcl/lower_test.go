package gcl

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/mc"
)

func mustLower(t *testing.T, g *mc.Gas, src string) (*Lowered, error) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	return Lower(g, prog)
}

// tabulated reports per action whether Lower built its table.
func tabulated(l *Lowered) []bool {
	out := make([]bool, len(l.actions))
	for ai, la := range l.actions {
		out[ai] = la.base != 0
	}
	return out
}

// capSrc has 27 states. Its tables, smallest first (ties in declaration
// order), are inc 3 + zx 9 + xy 9 entries; yz's 9 would take the total
// past |Σ|, and the action that reads every variable is as large as Σ.
const capSrc = `var x : 0..2; var y : 0..2; var z : 0..2;
action zx: z == x -> x := (x + 1) % 3;
action all: x + y + z > 0 -> x := 0; y := 0; z := 0;
action xy: x == y -> y := (y + 1) % 3;
action inc: x < 2 -> x := x + 1;
action yz: y == z -> z := (z + 1) % 3;`

func TestLowerTablesCappedAtStates(t *testing.T) {
	g := mc.NewGas(nil, -1)
	l, err := mustLower(t, g, capSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true, false}
	for ai, got := range tabulated(l) {
		if got != want[ai] {
			t.Fatalf("action %q tabulated = %v, want %v", l.prog.Actions[ai].Name, got, want[ai])
		}
	}
	if entries, n := len(l.tables)-1, l.space.Size(); entries != 21 || entries > n {
		t.Fatalf("%d table entries for %d states, want 21", entries, n)
	}
	// Filling ticks once per entry.
	if g.Spent() != 21 {
		t.Fatalf("Lower spent %d, want one step per table entry (21)", g.Spent())
	}
	if _, err := mustLower(t, mc.NewGas(nil, 20), capSrc); !errors.Is(err, mc.ErrBudgetExhausted) {
		t.Fatalf("budget below the table entries: err = %v, want mc.ErrBudgetExhausted", err)
	}
}

// A program whose every action reads every variable, as the fleet load
// generator's tiny programs do, builds no tables at all.
func TestLowerSkipsTablesAsLargeAsSigma(t *testing.T) {
	l, err := mustLower(t, nil, "var x : 0..5;\naction a: x < 5 -> x := x + 1;\naction b: x == 5 -> x := 0;")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.tables) != 1 || l.transitions != l.space.Size() {
		t.Fatalf("tables %d entries, transitions %d: want only the evaluate entry and a first guess of |Σ|",
			len(l.tables), l.transitions)
	}
}

// tableCancelSrc has 10^4 states and five 1000-entry tables: filling them
// crosses the meter's context poll interval before the sweep starts.
const tableCancelSrc = `var a : 0..9; var b : 0..9; var c : 0..9; var d : 0..9;
action t1: a + b + c > 5 -> a := (a + 1) % 10;
action t2: b + c + d > 5 -> b := (b + 1) % 10;
action t3: c + d + a > 5 -> c := (c + 1) % 10;
action t4: d + a + b > 5 -> d := (d + 1) % 10;
action t5: a == b -> c := a;`

func TestLowerCancelledStopsTableFilling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := mc.NewGas(ctx, -1)
	if _, err := mustLower(t, g, tableCancelSrc); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g.Spent() >= 5000 {
		t.Fatalf("spent %d steps: the cancellation was noticed only after every table was filled", g.Spent())
	}
}

// Each conjunct of init's && chain gets a table over its own read set,
// after the action tables; a conjunct that reads every variable gets
// none, and filling the tables ticks once per entry as for actions.
func TestLowerTabulatesInitConjuncts(t *testing.T) {
	g := mc.NewGas(nil, -1)
	l, err := mustLower(t, g, `var x : 0..2; var y : 0..2; var b : bool;
init (b ? x + y : 0) > 0 && x == 0 && (b && y < 2);
action a: x < 2 -> x := x + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, c := range l.init {
		if c.base != 0 {
			sizes = append(sizes, c.size)
		} else {
			sizes = append(sizes, -1)
		}
	}
	if want := []int{-1, 3, 2, 3}; !slices.Equal(sizes, want) {
		t.Fatalf("conjunct table sizes %v, want %v (-1: untabulated)", sizes, want)
	}
	if entries := len(l.tables) - 1; entries != 3+3+2+3 || g.Spent() != int64(entries) {
		t.Fatalf("%d table entries, %d steps spent; want 11 of each", entries, g.Spent())
	}
}

// stepSrc packs x and b into one register, x + 5·b, and y into another;
// bad faults and esc leaves y's domain. Under a budget of 25 its tables,
// smallest first, are esc 4, inc 10 and flip 10 entries.
const stepSrc = `var x : 1..5; var b : bool; var y : 0..3;
action inc: x < 5 && !b -> x := x + 1;
action flip: x == 5 -> b := !b; x := 1;
action copy: y != x % 4 -> y := x % 4;
action bad: y == 3 -> y := y / (x - x);
action esc: y == 2 -> y := y + 5;`

// TestStepMatchesEval: an action of a LowerWeighted program, looked up
// by Index and, on Evaluate, stepped by its closures, agrees with Eval
// at every point of the space, whatever the budget; its registers are
// x + 5·b and y.
func TestStepMatchesEval(t *testing.T) {
	prog, err := Parse(stepSrc)
	if err == nil {
		err = Check(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	reg, weights := []int{0, 0, 1}, []int{1, 5, 1}
	for _, tc := range []struct {
		budget int
		tables []bool
	}{
		{0, []bool{false, false, false, false, false}},
		{25, []bool{true, true, false, false, true}},
		{1000, []bool{true, true, true, true, true}},
	} {
		l := LowerWeighted(prog, reg, weights, tc.budget)
		if got := tabulated(l); !slices.Equal(got, tc.tables) {
			t.Fatalf("budget %d: tables %v, want %v", tc.budget, got, tc.tables)
		}
		sp := SpaceOf(prog)
		for s := 0; s < sp.Size(); s++ {
			env, regs := sp.Decode(s, nil), make([]int, 2)
			for v, d := range env {
				regs[reg[v]] += d * weights[v]
			}
			for ai, a := range prog.Actions {
				entries, base, terms := l.Index(ai)
				for _, t := range terms {
					base += regs[t.Reg] * t.Weight
				}
				delta, enabled, err := int(entries[base]), true, error(nil)
				switch entries[base] {
				case Disabled:
					delta, enabled = 0, false
				case Evaluate:
					delta, enabled, err = l.Step(ai, regs)
				}
				wantDelta, wantEnabled, wantErr := stepByEval(prog, a, weights, env)
				if delta != wantDelta || enabled != wantEnabled || (err != nil) != (wantErr != nil) {
					t.Fatalf("budget %d, %s at %s: (%d, %v, %v), Eval (%d, %v, %v)", tc.budget, a.Name,
						sp.StateString(s), delta, enabled, err, wantDelta, wantEnabled, wantErr)
				}
			}
		}
	}
}

// stepByEval is Step by Eval.
func stepByEval(prog *Program, a ActionDecl, weights []int, env []int) (int, bool, error) {
	g, err := Eval(prog, a.Guard, env)
	if err != nil || g == 0 {
		return 0, false, err
	}
	delta := 0
	for _, as := range a.Assigns {
		v, err := Eval(prog, as.Expr, env)
		if err != nil {
			return 0, false, err
		}
		vi := varIndex(prog, as.Name)
		enc, err := encodeValue(prog.Vars[vi], v)
		if err != nil {
			return 0, false, err
		}
		delta += (enc - env[vi]) * weights[vi]
	}
	return delta, true, nil
}

// A read set whose size overflows an int leaves its action untabulated
// instead of sizing a table from the wrapped product, 2^70 mod 2^64.
func TestLowerWeightedSaturates(t *testing.T) {
	prog, err := Parse(`var a : 0..16383; var b : 0..16383; var c : 0..16383; var d : 0..16383; var e : 0..16383;
action t: a + b + c + d + e > 0 -> a := 0;`)
	if err == nil {
		err = Check(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	l := LowerWeighted(prog, []int{0, 1, 2, 3, 4}, []int{1, 1, 1, 1, 1}, 1<<20)
	if tabulated(l)[0] || len(l.tables) != 1 {
		t.Fatalf("a table of %d entries for an action over 2^70 points", len(l.tables)-1)
	}
	if _, base, _ := l.Index(0); base != 0 {
		t.Fatalf("action at table position %d, want the evaluate entry 0", base)
	}
	if delta, enabled, err := l.Step(0, []int{5, 0, 0, 9, 0}); delta != -5 || !enabled || err != nil {
		t.Fatalf("Step = (%d, %v, %v), want (-5, true, nil)", delta, enabled, err)
	}
}
