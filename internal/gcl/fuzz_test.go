package gcl

import (
	"strings"
	"testing"
)

// FuzzParse asserts the lexer/parser/checker pipeline never panics and
// that accepted programs survive a print→reparse round trip.
func FuzzParse(f *testing.F) {
	f.Add("var x : 0..2;\naction a: x < 2 -> x := x + 1;")
	f.Add(dijkstra3Src)
	f.Add("var b : bool;\ninit !b;\naction t: b || !b -> b := false;")
	f.Add("var x : -5..5;\naction n: -x == 5 -> x := 0;")
	f.Add("var x : 0..1; action broken")
	f.Add("/* unterminated")
	f.Add("🤖")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := Check(prog); err != nil {
			return
		}
		printed := prog.String()
		prog2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\n%s", err, printed)
		}
		if got := prog2.String(); got != printed {
			t.Fatalf("print not idempotent:\n%s\nvs\n%s", printed, got)
		}
	})
}

// FuzzCompile asserts that compilation of small-domain programs never
// panics, and that the lowered enumeration yields the reference
// enumerator's automaton or its exact error text.
func FuzzCompile(f *testing.F) {
	f.Add("var x : 0..2;\naction a: true -> x := (x + 1) % 3;")
	f.Add("var x : 0..2;\naction a: true -> x := x + 1;") // domain overflow
	f.Add("var x : 0..2;\naction a: 1 / x == 1 -> x := 0;")
	f.Add("var x : -2..2;\nvar b : bool;\ninit b || x % 2 == 0;\naction a: b -> x := -x; b := x > 0;")
	// Init conjuncts: faults after and before a true conjunct, one that
	// reads every variable, a nested chain, a bare boolean.
	f.Add("var x : 0..2;\nvar y : 0..2;\ninit x == 1 && 1 / y == 1;\naction a: true -> x := 0;")
	f.Add("var x : 0..2;\nvar y : 0..2;\ninit 1 / y == 1 && x == 1;\naction a: true -> x := 0;")
	f.Add("var x : 0..2;\nvar y : 0..2;\ninit (x + y) % 3 == 0 && y < 2;\naction a: x < 2 -> x := x + 1;")
	f.Add("var x : 0..3;\nvar y : 0..2;\nvar b : bool;\ninit x < 2 && (y == 0 && !b);\naction a: x < 3 -> x := x + 1;")
	f.Add("var b : bool;\nvar x : -1..1;\ninit b && x == 0;\naction a: x < 1 -> x := x + 1; b := !b;")
	f.Fuzz(func(t *testing.T, src string) {
		// Guard against fuzz inputs that declare astronomically large
		// domains: compilation cost is proportional to the state space.
		if strings.Contains(src, "..") && len(src) < 4096 {
			prog, err := Parse(src)
			if err != nil {
				return
			}
			space := 1
			for _, v := range prog.Vars {
				space *= v.Card()
				if space > 1<<16 {
					return
				}
			}
			assertSameAsReference(t, "fuzz", src)
		}
	})
}
