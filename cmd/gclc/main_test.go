package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const counterSrc = `
var x : 0..2;
init x == 0;
action tick: true -> x := (x + 1) % 3;
`

func TestRunPrint(t *testing.T) {
	path := writeTemp(t, "c.gcl", counterSrc)
	var b strings.Builder
	if err := run([]string{"print", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "var x : 0..2;") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestRunInfo(t *testing.T) {
	path := writeTemp(t, "c.gcl", counterSrc)
	var b strings.Builder
	if err := run([]string{"info", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "|Σ|=3") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestRunSelfStab(t *testing.T) {
	path := writeTemp(t, "c.gcl", counterSrc)
	var b strings.Builder
	if err := run([]string{"selfstab", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "✓") {
		t.Fatalf("output:\n%s", b.String())
	}

	broken := writeTemp(t, "b.gcl", `
var x : 0..1;
init x == 0;
action spin: x == 0 -> x := 0;
action trap: x == 1 -> x := 1;
`)
	b.Reset()
	if err := run([]string{"selfstab", broken}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "✗") || !strings.Contains(b.String(), "counterexample") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestRunDot(t *testing.T) {
	path := writeTemp(t, "c.gcl", counterSrc)
	var b strings.Builder
	if err := run([]string{"dot", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "digraph") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestRunDotTooLarge(t *testing.T) {
	big := writeTemp(t, "big.gcl", `
var a : 0..9;
var b : 0..9;
var c : 0..9;
action t: true -> a := a;
`)
	var sb strings.Builder
	if err := run([]string{"dot", big}, &sb); err == nil {
		t.Fatal("oversized dot accepted")
	}
}

func TestRunRefine(t *testing.T) {
	aPath := writeTemp(t, "a.gcl", `
var x : 0..3;
init x == 0;
action down: x > 0 -> x := x - 1;
action cycle: x == 0 -> x := 0;
`)
	cPath := writeTemp(t, "c.gcl", `
var x : 0..3;
init x == 0;
action jump: x > 1 -> x := x - 2;
action down: x == 1 -> x := 0;
action cycle: x == 0 -> x := 0;
`)
	var b strings.Builder
	if err := run([]string{"refine", cPath, aPath}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The jump x := x−2 compresses A's two decrements: convergence
	// refinement holds, everywhere refinement does not.
	if !strings.Contains(out, "⪯") || !strings.Contains(out, "⊑") {
		t.Fatalf("output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 verdicts, got:\n%s", out)
	}
	if !strings.HasPrefix(lines[2], "✓") { // convergence refinement
		t.Fatalf("convergence verdict: %s", lines[2])
	}
	if !strings.HasPrefix(lines[1], "✗") { // everywhere refinement
		t.Fatalf("everywhere verdict: %s", lines[1])
	}
}

func TestRunRefineSpaceMismatch(t *testing.T) {
	aPath := writeTemp(t, "a.gcl", "var x : 0..1;\naction t: true -> x := x;")
	cPath := writeTemp(t, "c.gcl", "var y : 0..2;\naction t: true -> y := y;")
	var b strings.Builder
	if err := run([]string{"refine", cPath, aPath}, &b); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
}

func TestRunOptimize(t *testing.T) {
	path := writeTemp(t, "o.gcl", `
var x : 0..3;
init x == 0;
action loop: x == x -> x := x * 1;
action step: x + 0 < 3 -> x := x + 1;
`)
	var b strings.Builder
	if err := run([]string{"optimize", path}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "certified") {
		t.Fatalf("output:\n%s", out)
	}
	if strings.Contains(out, "x * 1") || strings.Contains(out, "x + 0") {
		t.Fatalf("not simplified:\n%s", out)
	}
}

func TestRunUsageErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"nope", "x"}, &b); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"info", "/does/not/exist.gcl"}, &b); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestUsageErrorNamesOperand: a command invoked without its operand
// must say which operand is missing, per command — not dump the global
// usage line.
func TestUsageErrorNamesOperand(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"print"}, []string{"gclc print", "missing file operand"}},
		{[]string{"lint"}, []string{"gclc lint", "[-json]", "missing file operand"}},
		{[]string{"lint", "-json"}, []string{"gclc lint", "missing file operand"}},
		{[]string{"refine"}, []string{"gclc refine", "<concrete.gcl> <abstract.gcl>", "missing file operand"}},
		{[]string{"refine", "only-one.gcl"}, []string{"gclc refine", "missing abstract file operand"}},
	}
	for _, tc := range cases {
		err := run(tc.args, &strings.Builder{})
		if err == nil {
			t.Fatalf("%v accepted", tc.args)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, w)
			}
		}
	}
}

// TestUsageListsEverySubcommand keeps the usage string honest: every
// subcommand the dispatch switch accepts must be advertised in it.
func TestUsageListsEverySubcommand(t *testing.T) {
	err := run(nil, &strings.Builder{})
	if err == nil {
		t.Fatal("no-args invocation accepted")
	}
	usage := err.Error()

	src, rerr := os.ReadFile("main.go")
	if rerr != nil {
		t.Fatal(rerr)
	}
	re := regexp.MustCompile(`(?m)^\tcase "(\w+)":`)
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) < 7 {
		t.Fatalf("found only %d subcommands in main.go's dispatch switch; lint missing?", len(matches))
	}
	names := make(map[string]bool, len(matches))
	for _, m := range matches {
		names[m[1]] = true
		if !strings.Contains(usage, m[1]) {
			t.Errorf("usage string omits subcommand %q: %s", m[1], usage)
		}
	}
	if !names["lint"] {
		t.Error("dispatch switch has no lint subcommand")
	}
	// lint's optional -json flag is part of the interface; the global
	// usage line must advertise it, not just lint's per-command usage.
	if !strings.Contains(usage, "[-json]") {
		t.Errorf("usage string omits lint's optional -json flag: %s", usage)
	}
}

// TestRunSelfStabOverflowingSpace: a program past 2^62 states is an
// error exit, not a panic.
func TestRunSelfStabOverflowingSpace(t *testing.T) {
	path := writeTemp(t, "huge.gcl", `
var a : 0..999999; var b : 0..999999; var c : 0..999999; var d : 0..999999;
var e : 0..999999; var f : 0..999999; var g : 0..999999; var h : 0..999999;
init a == 0;
action t: true -> a := a;
`)
	var b strings.Builder
	if err := run([]string{"selfstab", path}, &b); err == nil || !strings.Contains(err.Error(), "2^62") {
		t.Fatalf("err = %v, output:\n%s", err, b.String())
	}
}
