package system_test

import (
	"slices"
	"testing"

	"repro/internal/gcl"
)

// Guarded commands are enumerated into transition systems by the gcl
// compiler; these tests check that enumeration from the system side.

func mustParse(t *testing.T, src string) *gcl.Program {
	t.Helper()
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestEnumerate(t *testing.T) {
	// x < 2 → x := x+1
	c, err := gcl.Compile("counter", `
var x : 0..2;
init x == 0;
action inc: x < 2 -> x := x + 1;
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := c.System
	if sys.NumStates() != 3 || sys.NumTransitions() != 2 {
		t.Fatalf("got %s", sys)
	}
	if !sys.HasTransition(0, 1) || !sys.HasTransition(1, 2) {
		t.Fatal("wrong transitions")
	}
	if !sys.Terminal(2) {
		t.Fatal("state 2 should be terminal")
	}
	if got := sys.InitStates(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("init = %v", got)
	}
}

func TestEnumerateNilInitMeansAll(t *testing.T) {
	prog := mustParse(t, `var x : 0..2;`)
	ls, err := gcl.CompileLabeled("w", prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.Base().Init().Count(); got != 3 {
		t.Fatalf("init count = %d, want 3", got)
	}
	if ls.Base().NumTransitions() != 0 {
		t.Fatalf("no actions, but %s", ls.Base())
	}
}

func TestEnumerateKeepsStutter(t *testing.T) {
	// The action changes nothing: a τ step.
	prog := mustParse(t, `
var x : 0..1;
action tau: x == 1 -> x := x;
`)
	ls, err := gcl.CompileLabeled("stutter", prog)
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Base().HasTransition(1, 1) {
		t.Fatal("stutter transition dropped")
	}
	if !ls.Enabled(1, 0) || ls.Enabled(0, 0) {
		t.Fatal("stutter action enabledness wrong")
	}
}

func TestEnabledActions(t *testing.T) {
	prog := mustParse(t, `
var x : 0..2;
action a: x == 1 -> x := 0;
action b: x >= 1 -> x := 2;
`)
	ls, err := gcl.CompileLabeled("enabled", prog)
	if err != nil {
		t.Fatal(err)
	}
	enabled := func(s int) []string {
		var names []string
		for a := 0; a < ls.NumActions(); a++ {
			if ls.Enabled(s, a) {
				names = append(names, ls.ActionName(a))
			}
		}
		return names
	}
	if got := enabled(1); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("enabled actions = %v", got)
	}
	if got := enabled(0); got != nil {
		t.Fatalf("enabled actions = %v, want none", got)
	}
}
