package analysis

import (
	"strings"
	"testing"

	"repro/internal/gcl"
)

// FuzzAnalyze asserts three things on arbitrary inputs: the analyzer
// never panics, on small state spaces every definite interval-tier
// claim survives exact enumeration, and the exact tier's table-driven
// sweep derives the same facts and diagnostics as the reference sweep
// by Eval. The seed corpus mirrors
// internal/gcl's fuzz seeds plus programs that hit each analyzer.
func FuzzAnalyze(f *testing.F) {
	// Seeds shared with gcl.FuzzParse / gcl.FuzzCompile.
	f.Add("var x : 0..2;\naction a: x < 2 -> x := x + 1;")
	f.Add("var b : bool;\ninit !b;\naction t: b || !b -> b := false;")
	f.Add("var x : -5..5;\naction n: -x == 5 -> x := 0;")
	f.Add("var x : 0..1; action broken")
	f.Add("/* unterminated")
	f.Add("🤖")
	f.Add("var x : 0..2;\naction a: true -> x := (x + 1) % 3;")
	f.Add("var x : 0..2;\naction a: true -> x := x + 1;") // domain overflow
	f.Add("var x : 0..2;\naction a: 1 / x == 1 -> x := 0;")
	// Analyzer-specific seeds.
	f.Add("var x : 0..3;\naction dead: x > 5 -> x := 0;")
	f.Add("var x : 0..3;\nvar ghost : bool;\naction s: x == 1 -> x := 1;")
	f.Add("var x : 0..9;\ninit x > 20;\naction a: x < 3 && x > 6 -> x := x / 0;")
	f.Add("var x : 1..3;\naction norm: true -> x := x - x + 1;")
	// Table seeds: a fault at some projection points only, offset and
	// boolean domains, an empty read set, an untabulated action.
	f.Add("var x : 0..3;\nvar y : 0..2;\nvar z : bool;\ninit x == 0;\naction a: x / (y - 1) > 0 -> x := 0;\naction b: x < 3 -> x := x + 1;")
	f.Add("var x : -2..2;\nvar b : bool;\nvar y : 3..5;\naction a: b && y > 3 -> y := y - 1; b := x > 0;\naction k: true -> x := 2;")
	f.Add("var x : 0..2;\nvar y : 0..2;\naction all: x + y < 4 -> y := (x + y) % 3; x := y;\naction one: x < 2 -> x := x + 1;")
	// Two actions that write one variable, one of them faulting where
	// x = 0: GCL007 compares their successors state by state.
	f.Add("var x : 0..3;\nvar y : 0..1;\ninit x == 1;\naction inc: x < 3 -> x := x + 1;\naction inv: y == 0 -> x := 3 / x;")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		prog, err := gcl.Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		res, err := Analyze(prog, Options{Exact: true, ExactStateLimit: 1 << 10})
		if err != nil {
			return // check errors are fine
		}
		if !res.Exact {
			return // space too large to cross-check
		}
		if msg := exactMismatch(prog); msg != "" {
			t.Fatalf("%s\n%s", msg, src)
		}
		// Exact results replace every decided approx claim, so any
		// surviving definite verdict was confirmed by enumeration.
		// Sanity-check the merge really happened.
		for _, d := range res.Diags {
			switch d.Code {
			case CodeDeadGuard, CodeTautologyGuard, CodeUnreachableAction,
				CodeStutterAction, CodeInitUnsat, CodeOverlappingGuards:
				if d.Confidence != ConfExact {
					t.Fatalf("approx %s leaked through exact merge: %+v", d.Code, d)
				}
			case CodeDomainEscape:
				if d.Severity == SevError && d.Confidence != ConfExact {
					t.Fatalf("definite escape not confirmed: %+v", d)
				}
			}
			if d.Msg == "" || !strings.HasPrefix(string(d.Code), "GCL") {
				t.Fatalf("malformed diagnostic: %+v", d)
			}
		}
	})
}
