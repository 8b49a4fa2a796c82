package analysis

import (
	"strings"
	"testing"

	"repro/internal/gcl"
	"repro/internal/mc"
	"repro/internal/ring"
	"repro/internal/system"
)

// enumerateGuard brute-forces, independently of the exact tier's own
// sweep, in how many states an action's guard holds. Tests use it to
// confirm that exact-confidence verdicts agree with enumeration.
func enumerateGuard(t *testing.T, prog *gcl.Program, action string) (enabled, total int) {
	t.Helper()
	sp := gcl.SpaceOf(prog)
	var guard gcl.Expr
	for i := range prog.Actions {
		if prog.Actions[i].Name == action {
			guard = prog.Actions[i].Guard
		}
	}
	if guard == nil {
		t.Fatalf("no action %q", action)
	}
	env := make(system.Vals, len(prog.Vars))
	for s := 0; s < sp.Size(); s++ {
		env = sp.Decode(s, env)
		on, err := gcl.EvalBool(prog, guard, env)
		if err == nil && on {
			enabled++
		}
	}
	return enabled, sp.Size()
}

// TestExactConfirmsDeadGuard: program 1 of the ≥2 the acceptance
// criteria require — an interval-tier dead guard is re-derived with
// exact confidence, and the test's own enumeration agrees.
func TestExactConfirmsDeadGuard(t *testing.T) {
	src := `
var x : 0..3;
var y : 0..3;
action dead: x + y > 9 -> x := 0;
action live: x < 3 -> x := x + 1;
`
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := findCode(t, approx.Diags, CodeDeadGuard); d.Confidence != ConfApprox {
		t.Fatalf("interval tier: %+v", d)
	}
	exact, err := Analyze(prog, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact {
		t.Fatal("exact tier did not run")
	}
	d := findCode(t, exact.Diags, CodeDeadGuard)
	if d.Confidence != ConfExact {
		t.Fatalf("not confirmed: %+v", d)
	}
	// Independent enumeration: the guard really holds nowhere.
	if enabled, total := enumerateGuard(t, prog, "dead"); enabled != 0 || total != 16 {
		t.Fatalf("enumeration disagrees: enabled=%d total=%d", enabled, total)
	}
}

// TestExactConfirmsStutterAndTautology: program 2 — a pinned stutter
// action and a tautological guard both get exact confidence, and
// enumeration confirms the tautology holds in every state.
func TestExactConfirmsStutterAndTautology(t *testing.T) {
	src := `
var x : 0..4;
action all: x >= 0 -> x := (x + 1) % 5;
action pin: x == 2 -> x := 2;
`
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := findCode(t, approx.Diags, CodeStutterAction); d.Confidence != ConfApprox {
		t.Fatalf("interval tier stutter: %+v", d)
	}
	if d := findCode(t, approx.Diags, CodeTautologyGuard); d.Confidence != ConfApprox {
		t.Fatalf("interval tier tautology: %+v", d)
	}
	exact, err := Analyze(prog, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact {
		t.Fatal("exact tier did not run")
	}
	if d := findCode(t, exact.Diags, CodeStutterAction); d.Confidence != ConfExact {
		t.Fatalf("stutter not confirmed: %+v", d)
	}
	if d := findCode(t, exact.Diags, CodeTautologyGuard); d.Confidence != ConfExact {
		t.Fatalf("tautology not confirmed: %+v", d)
	}
	if enabled, total := enumerateGuard(t, prog, "all"); enabled != total {
		t.Fatalf("enumeration disagrees with tautology: %d of %d", enabled, total)
	}
}

// TestExactDowngradesFalseEscape: the interval domain cannot see that
// x - x + 1 is constant, so the interval tier warns about a possible
// domain escape; enumeration finds no escaping state and downgrades
// the warning to an info instead of dropping it.
func TestExactDowngradesFalseEscape(t *testing.T) {
	src := `
var x : 1..3;
action norm: true -> x := x - x + 1;
`
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := findCode(t, approx.Diags, CodeDomainEscape); d.Severity != SevWarning {
		t.Fatalf("interval tier: %+v", d)
	}
	exact, err := Analyze(prog, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	d := findCode(t, exact.Diags, CodeDomainEscape)
	if d.Severity != SevInfo || d.Confidence != ConfExact {
		t.Fatalf("not downgraded: %+v", d)
	}
	if !strings.Contains(d.Msg, "no state") {
		t.Fatalf("downgrade msg: %s", d.Msg)
	}
}

func TestExactEscapeWitness(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
action over: x == 3 -> x := x + 10;
`, Options{Exact: true})
	d := findCode(t, res.Diags, CodeDomainEscape)
	if d.Severity != SevError || d.Confidence != ConfExact {
		t.Fatalf("escape: %+v", d)
	}
	if len(d.Related) != 1 || !strings.Contains(d.Related[0].Msg, "x=3") {
		t.Fatalf("witness: %+v", d.Related)
	}
}

func TestExactUnreachableAction(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
var fault : bool;
init x == 0 && !fault;
action work: !fault && x < 3 -> x := x + 1;
action stuck: fault -> fault := true;
`, Options{Exact: true})
	d := findCode(t, res.Diags, CodeUnreachableAction)
	if d.Confidence != ConfExact || !strings.Contains(d.Msg, "stuck") {
		t.Fatalf("unreachable: %+v", d)
	}
	// The reachable action must not be flagged.
	for _, dd := range res.Diags {
		if dd.Code == CodeUnreachableAction && strings.Contains(dd.Msg, "work") {
			t.Fatalf("reachable action flagged: %v", dd)
		}
	}
}

func TestNoUnreachableWithoutInit(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
action a: x == 0 -> x := 1;
`, Options{Exact: true})
	if hasCode(res.Diags, CodeUnreachableAction) {
		t.Fatalf("GCL004 without init: %v", res.Diags)
	}
}

// TestOverlapSameSuccessorSuppressed mirrors the dijkstra3 middle
// process: mid_up and mid_dn are co-enabled only when c0 == c2, where
// both write the same value — not observable nondeterminism. A pair
// with genuinely different successors is flagged.
func TestOverlapSameSuccessorSuppressed(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..2;
var y : 0..2;
var z : 0..2;
action up: x == y -> z := x;
action dn: x == y -> z := y;
action conflict: x == y -> x := (x + 1) % 3;
`, Options{Exact: true})
	for _, d := range res.Diags {
		if d.Code != CodeOverlappingGuards {
			continue
		}
		if strings.Contains(d.Msg, `"up" and "dn"`) {
			t.Fatalf("same-successor pair flagged: %v", d)
		}
	}
	found := false
	for _, d := range res.Diags {
		if d.Code == CodeOverlappingGuards && strings.Contains(d.Msg, "conflict") {
			found = true
			if d.Confidence != ConfExact {
				t.Fatalf("overlap confidence: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("conflicting pair not flagged: %v", res.Diags)
	}
}

func TestExactInitUnsat(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..2;
init (x + 1) % 3 == x;
action a: true -> x := (x + 1) % 3;
`, Options{Exact: true})
	d := findCode(t, res.Diags, CodeInitUnsat)
	// The interval tier cannot decide (x+1)%3 == x; only enumeration
	// proves there is no initial state.
	if d.Confidence != ConfExact || d.Severity != SevError {
		t.Fatalf("init unsat: %+v", d)
	}
}

// TestExactBudgetExhaustion: when the gas runs out mid-sweep the
// analysis falls back to the interval tier's verdicts instead of
// failing.
func TestExactBudgetExhaustion(t *testing.T) {
	src := `
var x : 0..3;
var y : 0..3;
action dead: x + y > 9 -> x := 0;
action live: x < 3 -> x := x + 1;
`
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(prog, Options{Exact: true, Gas: mc.NewGas(nil, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("exact tier claimed completion with 3 gas")
	}
	if d := findCode(t, res.Diags, CodeDeadGuard); d.Confidence != ConfApprox {
		t.Fatalf("fallback diag: %+v", d)
	}
}

func TestExactSkipsLargeSpaces(t *testing.T) {
	res := mustAnalyze(t, `
var a : 0..9;
var b : 0..9;
var c : 0..9;
action t: a > 90 -> a := 0;
`, Options{Exact: true, ExactStateLimit: 100})
	if res.Exact {
		t.Fatal("exact tier ran above its state limit")
	}
	if d := findCode(t, res.Diags, CodeDeadGuard); d.Confidence != ConfApprox {
		t.Fatalf("diag: %+v", d)
	}
}

func TestCardProductSaturates(t *testing.T) {
	prog, err := gcl.Parse(`
var a : 0..1000000;
var b : 0..1000000;
var c : 0..1000000;
var d : 0..1000000;
action t: true -> a := a;
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := gcl.StateBound(prog, 1<<16); got != 1<<16+1 {
		t.Fatalf("StateBound = %d", got)
	}
}

// TestLintExactAllocs bounds what Analyze allocates with the exact tier
// on the ring programs cold checks submit. The Σ-sized arrays come from
// the system pool, the interval analyzers the exact tier replaces do not
// run, and each message is built in one scratch buffer, so most of what
// is left is the lowered program, the messages and the diagnostics.
func TestLintExactAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		max  float64
	}{
		{"D3-N6", ring.Dijkstra3GCL(6), 310},
		{"A3-N6", ring.AggressiveThreeGCL(6), 495},
		{"K3-N6", ring.KStateGCL(6, 3), 165},
	} {
		prog, err := gcl.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if res, err := Analyze(prog, Options{Exact: true}); err != nil || !res.Exact {
				t.Fatalf("%s: exact tier did not complete: %v", tc.name, err)
			}
		})
		if allocs > tc.max {
			t.Errorf("Analyze(%s) makes %.0f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
