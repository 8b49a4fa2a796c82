package gcl_test

import (
	"fmt"
	"testing"
	"unicode"

	"repro/internal/gcl"
	"repro/internal/ring"
)

func TestCompileMatchesReferenceRings(t *testing.T) {
	for n := 2; n <= 6; n++ {
		gcl.AssertSameAsReference(t, fmt.Sprintf("d3-N%d", n), ring.Dijkstra3GCL(n))
		gcl.AssertSameAsReference(t, fmt.Sprintf("a3-N%d", n), ring.AggressiveThreeGCL(n))
		for _, k := range []int{3, 4} {
			gcl.AssertSameAsReference(t, fmt.Sprintf("k%d-N%d", k, n), ring.KStateGCL(n, k))
		}
	}
}

// On the ring families every action is tabulated, so the sweep's
// successor count comes exactly from the tables.
func TestLowerTransitionsExactOnRings(t *testing.T) {
	for _, src := range []string{ring.Dijkstra3GCL(4), ring.AggressiveThreeGCL(4), ring.KStateGCL(4, 3)} {
		prog, err := gcl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := gcl.Check(prog); err != nil {
			t.Fatal(err)
		}
		l, err := gcl.Lower(nil, prog)
		if err != nil {
			t.Fatal(err)
		}
		for ai, ok := range gcl.Tabulated(l) {
			if !ok {
				t.Fatalf("action %q untabulated", prog.Actions[ai].Name)
			}
		}
		steps := 0
		var moves []gcl.Move
		for c := l.NewCursor(); c.Next(); {
			moves = c.Moves(moves[:0])
			steps += len(moves)
		}
		if l.Transitions() != steps {
			t.Fatalf("Transitions() = %d, the sweep yields %d successors", l.Transitions(), steps)
		}
	}
}

// Table filling keeps the enumeration's allocation count near that of the
// closure-per-state sweep (168 allocations on D3-N6): the read sets,
// tables and variable index each live in one backing array.
func TestCompileAllocs(t *testing.T) {
	prog, err := gcl.Parse(ring.Dijkstra3GCL(6))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := gcl.CompileProgram("d3", prog); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 180 {
		t.Fatalf("CompileProgram(D3-N6) makes %.0f allocations, want at most 180", allocs)
	}
}

// Lex sizes its token slice from the source length, so lexing a ring
// program allocates the slice once instead of growing it from empty:
// the only other allocations are the texts of the words (keywords and
// identifiers) and numbers.
func TestLexAllocs(t *testing.T) {
	src := ring.Dijkstra3GCL(6)
	toks, err := gcl.Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	texts := 0
	for _, tok := range toks {
		if c := tok.Text; c != "" && (c[0] == '_' || unicode.IsLetter(rune(c[0])) || unicode.IsDigit(rune(c[0]))) {
			texts++
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := gcl.Lex(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(1+texts) {
		t.Fatalf("Lex(Dijkstra3GCL(6)) makes %.0f allocations, want at most %d: one token slice and %d texts", allocs, 1+texts, texts)
	}
}
