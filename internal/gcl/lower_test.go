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
