package analysis

import (
	"cmp"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gcl"
	"repro/internal/ring"
)

// mustAnalyze parses, checks, and analyzes a source at the interval
// tier only (tests of the exact tier opt in explicitly).
func mustAnalyze(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

func codesOf(diags []Diag) []Code {
	out := make([]Code, len(diags))
	for i, d := range diags {
		out[i] = d.Code
	}
	return out
}

func hasCode(diags []Diag, c Code) bool {
	for _, d := range diags {
		if d.Code == c {
			return true
		}
	}
	return false
}

func findCode(t *testing.T, diags []Diag, c Code) Diag {
	t.Helper()
	for _, d := range diags {
		if d.Code == c {
			return d
		}
	}
	t.Fatalf("no %s diagnostic in %v", c, diags)
	return Diag{}
}

func TestDeadGuardInterval(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
action dead: x > 5 -> x := 0;
action live: x < 3 -> x := x + 1;
`, Options{})
	d := findCode(t, res.Diags, CodeDeadGuard)
	if d.Confidence != ConfApprox || d.Severity != SevWarning {
		t.Fatalf("diag: %+v", d)
	}
	if d.Pos.Line != 3 {
		t.Fatalf("position: %v", d.Pos)
	}
	if !strings.Contains(d.Msg, "dead") {
		t.Fatalf("msg: %s", d.Msg)
	}
	// The live action must not be flagged.
	for _, d := range res.Diags {
		if d.Pos.Line == 4 {
			t.Fatalf("live action flagged: %v", d)
		}
	}
}

// TestDeadGuardViaRefinement needs constraint propagation, not plain
// interval evaluation: each conjunct is satisfiable, their meet is
// not.
func TestDeadGuardViaRefinement(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..9;
action dead: x < 3 && x > 6 -> x := 0;
`, Options{})
	if !hasCode(res.Diags, CodeDeadGuard) {
		t.Fatalf("contradictory conjuncts not flagged: %v", res.Diags)
	}
}

func TestTautologyGuard(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
action always: x >= 0 -> x := (x + 1) % 4;
action honest: true -> x := (x + 1) % 4;
`, Options{})
	d := findCode(t, res.Diags, CodeTautologyGuard)
	if d.Pos.Line != 3 || d.Severity != SevInfo {
		t.Fatalf("diag: %+v", d)
	}
	n := 0
	for _, dd := range res.Diags {
		if dd.Code == CodeTautologyGuard {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("the literal `true` guard must not be flagged: %v", res.Diags)
	}
}

func TestDomainEscape(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
action over: x == 3 -> x := x + 10;
action maybe: true -> x := x * 2;
action fine: x < 3 -> x := x + 1;
`, Options{})
	var definite, may *Diag
	for i := range res.Diags {
		if res.Diags[i].Code != CodeDomainEscape {
			continue
		}
		switch res.Diags[i].Pos.Line {
		case 3:
			definite = &res.Diags[i]
		case 4:
			may = &res.Diags[i]
		case 5:
			t.Fatalf("in-domain assignment flagged: %v", res.Diags[i])
		}
	}
	if definite == nil || definite.Severity != SevError || !strings.Contains(definite.Msg, "always leaves") {
		t.Fatalf("definite escape: %+v", definite)
	}
	if may == nil || may.Severity != SevWarning || !strings.Contains(may.Msg, "may leave") {
		t.Fatalf("may escape: %+v", may)
	}
}

func TestUnusedAndWriteOnlyVars(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
var sink : 0..7;
var ghost : bool;
action go: x < 3 -> x := x + 1; sink := x;
`, Options{})
	unused := findCode(t, res.Diags, CodeUnusedVar)
	if unused.Pos.Line != 4 || !strings.Contains(unused.Msg, "ghost") {
		t.Fatalf("unused: %+v", unused)
	}
	wo := findCode(t, res.Diags, CodeWriteOnlyVar)
	if wo.Pos.Line != 3 || !strings.Contains(wo.Msg, "sink") || len(wo.Related) != 1 {
		t.Fatalf("write-only: %+v", wo)
	}
	if wo.Confidence != ConfExact {
		t.Fatalf("var facts are syntactic and exact: %+v", wo)
	}
}

func TestVarReadOnlyInInitIsUsed(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
var pinned : 0..3;
init pinned == 0;
action go: x < 3 -> x := x + 1;
`, Options{})
	if hasCode(res.Diags, CodeUnusedVar) || hasCode(res.Diags, CodeWriteOnlyVar) {
		t.Fatalf("init-read variable flagged: %v", res.Diags)
	}
}

func TestStutterAction(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
var b : bool;
action syntactic: x < 3 -> x := x;
action pinned: x == 1 -> x := 1;
action boolpin: b -> b := true;
action real: x < 3 -> x := x + 1;
`, Options{})
	lines := map[int]bool{}
	for _, d := range res.Diags {
		if d.Code == CodeStutterAction {
			lines[d.Pos.Line] = true
		}
	}
	for _, want := range []int{4, 5, 6} {
		if !lines[want] {
			t.Fatalf("stutter at line %d not flagged: %v", want, res.Diags)
		}
	}
	if lines[7] {
		t.Fatalf("real action flagged as stutter: %v", res.Diags)
	}
}

func TestInitUnsat(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
init x > 7;
action go: x < 3 -> x := x + 1;
`, Options{})
	d := findCode(t, res.Diags, CodeInitUnsat)
	if d.Severity != SevError || d.Pos.Line != 3 {
		t.Fatalf("init diag: %+v", d)
	}

	clean := mustAnalyze(t, "var x : 0..3;\ninit x == 0;\naction g: x < 3 -> x := x + 1;", Options{})
	if hasCode(clean.Diags, CodeInitUnsat) {
		t.Fatalf("satisfiable init flagged: %v", clean.Diags)
	}
}

func TestConstCond(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
action a: x < 2 && x >= 0 -> x := (x <= 9) ? x + 1 : 0;
`, Options{})
	n := 0
	for _, d := range res.Diags {
		if d.Code == CodeConstCond {
			n++
			if d.Severity != SevInfo {
				t.Fatalf("constcond severity: %+v", d)
			}
		}
	}
	// Two findings: the comparison x >= 0 inside the guard and the
	// ternary condition x <= 9 in the assignment.
	if n != 2 {
		t.Fatalf("want 2 constant conditions, got %d: %v", n, res.Diags)
	}

	// The whole guard being constant is GCL002's business, not GCL010's.
	whole := mustAnalyze(t, "var x : 0..3;\naction a: x >= 0 -> x := (x + 1) % 4;", Options{})
	if hasCode(whole.Diags, CodeConstCond) {
		t.Fatalf("whole guard double-flagged: %v", whole.Diags)
	}
}

func TestOverlapIntervalTier(t *testing.T) {
	res := mustAnalyze(t, `
var x : 0..3;
action a: x >= 0 -> x := (x + 1) % 4;
action b: x <= 3 -> x := 0;
`, Options{})
	d := findCode(t, res.Diags, CodeOverlappingGuards)
	if len(d.Related) != 1 {
		t.Fatalf("overlap related: %+v", d)
	}
}

func TestDiagsSortedAndStable(t *testing.T) {
	res := mustAnalyze(t, `
var ghost : bool;
var x : 0..3;
action dead: x > 9 -> x := 0;
action over: x == 3 -> x := 17;
`, Options{})
	for i := 1; i < len(res.Diags); i++ {
		a, b := res.Diags[i-1], res.Diags[i]
		if a.Pos.Line > b.Pos.Line || (a.Pos.Line == b.Pos.Line && a.Pos.Col > b.Pos.Col) {
			t.Fatalf("diags not sorted: %v before %v", a, b)
		}
	}
}

func TestAnalyzeChecksProgram(t *testing.T) {
	prog, err := gcl.Parse("var x : 0..3;\naction a: x -> x := 1;") // int guard: type error
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog, Options{}); err == nil {
		t.Fatal("type-broken program analyzed without error")
	}
}

func TestAnalyzeRestrictedRegistry(t *testing.T) {
	var vars *Analyzer
	for _, a := range Analyzers() {
		if a.Name == "vars" {
			vars = a
		}
	}
	res := mustAnalyze(t, `
var ghost : bool;
var x : 0..3;
action dead: x > 9 -> x := 0;
`, Options{Analyzers: []*Analyzer{vars}})
	if got := codesOf(res.Diags); len(got) != 1 || got[0] != CodeUnusedVar {
		t.Fatalf("restricted run: %v", got)
	}
}

func TestVersionCoversRegistry(t *testing.T) {
	v := Version()
	for _, a := range Analyzers() {
		if !strings.Contains(v, a.Name) {
			t.Fatalf("Version() %q omits analyzer %q", v, a.Name)
		}
	}
}

func TestDiagJSONShape(t *testing.T) {
	d := Diag{
		Pos: gcl.Pos{Line: 3, Col: 8}, Code: CodeDeadGuard, Severity: SevWarning,
		Confidence: ConfExact, Msg: "m",
		Related: []Related{{Pos: gcl.Pos{Line: 1, Col: 2}, Msg: "r"}},
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["line"] != float64(3) || m["col"] != float64(8) || m["code"] != "GCL001" ||
		m["severity"] != "warning" || m["confidence"] != "exact" {
		t.Fatalf("JSON shape: %s", raw)
	}
	rel := m["related"].([]any)[0].(map[string]any)
	if rel["line"] != float64(1) || rel["msg"] != "r" {
		t.Fatalf("related shape: %s", raw)
	}
}

// Related embeds gcl.Pos, whose String would otherwise print the note
// as its position alone.
func TestRelatedString(t *testing.T) {
	r := Related{Pos: gcl.Pos{Line: 26, Col: 50}, Msg: `"scratch" written here`}
	if got, want := r.String(), `26:50: "scratch" written here`; got != want {
		t.Fatalf("Related.String() = %q, want %q", got, want)
	}
}

// TestDiagJSONRoundTrip decodes the JSON of real lint reports (every
// code, related notes, non-ASCII messages) back into the same
// diagnostics, and re-encodes them to the same bytes.
func TestDiagJSONRoundTrip(t *testing.T) {
	demo, err := os.ReadFile(filepath.Join("..", "..", "..", "examples", "gcl", "lint-demo.gcl"))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"lint-demo": string(demo), "d3-N6": ring.Dijkstra3GCL(6)} {
		diags := mustAnalyze(t, src, Options{Exact: true}).Diags
		raw, err := json.Marshal(diags)
		if err != nil {
			t.Fatal(err)
		}
		var back []Diag
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, diags) {
			t.Fatalf("%s: decoded diagnostics differ:\n got  %+v\n want %+v", name, back, diags)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(raw) {
			t.Fatalf("%s: re-encoding changed the bytes:\n%s\n%s", name, again, raw)
		}
	}
}

// An unknown severity or confidence name is an error, not a silent
// zero value: a client must not read "fatal" as an info.
func TestDiagJSONRejectsUnknownNames(t *testing.T) {
	for _, body := range []string{
		`{"line":1,"col":1,"code":"GCL001","severity":"fatal","confidence":"exact","msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":"","confidence":"exact","msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":"Warning","confidence":"exact","msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":2,"confidence":"exact","msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":"warning","confidence":"likely","msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":"warning","confidence":"","msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":"warning","confidence":1,"msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":null,"confidence":"exact","msg":"m"}`,
		`{"line":1,"col":1,"code":"GCL001","severity":"warning","confidence":null,"msg":"m"}`,
	} {
		var d Diag
		if err := json.Unmarshal([]byte(body), &d); err == nil {
			t.Errorf("decoded %s as %+v, want an error", body, d)
		}
	}
	var d Diag
	if err := json.Unmarshal([]byte(`{"line":1,"col":1,"code":"GCL001","severity":"error","confidence":"approx","msg":"m"}`), &d); err != nil ||
		d.Severity != SevError || d.Confidence != ConfApprox {
		t.Fatalf("known names: %+v, %v", d, err)
	}
}

// TestDiagJSONNamesDecodeInPlace decodes a report with and without its
// severity and confidence fields: the names cost no allocation, so
// decoding a lint body (as API clients and checkbench's verdict gate
// do) allocates per message, not per enum.
func TestDiagJSONNamesDecodeInPlace(t *testing.T) {
	diags := make([]Diag, 50)
	for i := range diags {
		diags[i] = Diag{Pos: gcl.Pos{Line: i + 1, Col: 1}, Code: CodeOverlappingGuards,
			Severity: SevWarning, Confidence: ConfExact, Msg: "m"}
	}
	full, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	bare := strings.ReplaceAll(strings.ReplaceAll(string(full),
		`"severity":"warning",`, ""), `"confidence":"exact",`, "")
	decodeAllocs := func(body []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			var out []Diag
			if err := json.Unmarshal(body, &out); err != nil || len(out) != len(diags) {
				t.Fatalf("decoded %d diags, err %v", len(out), err)
			}
		})
	}
	if named, unnamed := decodeAllocs(full), decodeAllocs([]byte(bare)); named > unnamed {
		t.Fatalf("decoding %d diags allocates %.0f times with severity and confidence, %.0f without", len(diags), named, unnamed)
	}
}

func TestSortDedup(t *testing.T) {
	pos := gcl.Pos{Line: 2, Col: 1}
	in := []Diag{
		{Pos: pos, Code: CodeDeadGuard, Msg: "m", Confidence: ConfApprox},
		{Pos: gcl.Pos{Line: 1, Col: 1}, Code: CodeUnusedVar, Msg: "u"},
		{Pos: pos, Code: CodeDeadGuard, Msg: "m", Confidence: ConfExact},
	}
	out := Sort(in)
	if len(out) != 2 {
		t.Fatalf("dedup: %v", out)
	}
	if out[0].Code != CodeUnusedVar || out[1].Code != CodeDeadGuard {
		t.Fatalf("order: %v", out)
	}
	if out[1].Confidence != ConfExact {
		t.Fatalf("dedup must keep the stronger confidence: %v", out[1])
	}
}

// TestSortIsStable checks Sort's permutation sort against a stable sort
// of the diagnostics themselves on lists full of ties: equal keys must
// keep their input order, which decides what dedup keeps.
func TestSortIsStable(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		in := make([]Diag, rng.IntN(40))
		for i := range in {
			in[i] = Diag{
				Pos:      gcl.Pos{Line: 1 + rng.IntN(3), Col: 1 + rng.IntN(2)},
				Code:     []Code{CodeDeadGuard, CodeOverlappingGuards}[rng.IntN(2)],
				Msg:      []string{"a", "b"}[rng.IntN(2)],
				Severity: Severity(i % 3), // tells tied entries apart
			}
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(a, b Diag) int {
			return cmp.Or(cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
				cmp.Compare(a.Code, b.Code), cmp.Compare(a.Msg, b.Msg))
		})
		want = slices.CompactFunc(want, func(a, b Diag) bool {
			return a.Pos == b.Pos && a.Code == b.Code && a.Msg == b.Msg
		})
		if got := Sort(slices.Clone(in)); !slices.EqualFunc(got, want, func(a, b Diag) bool {
			return a.Pos == b.Pos && a.Code == b.Code && a.Msg == b.Msg && a.Severity == b.Severity
		}) {
			t.Fatalf("trial %d: Sort\n got  %v\n want %v", trial, got, want)
		}
	}
}

func TestErrorCount(t *testing.T) {
	diags := []Diag{
		{Severity: SevError}, {Severity: SevWarning}, {Severity: SevError}, {Severity: SevInfo},
	}
	if got := ErrorCount(diags); got != 2 {
		t.Fatalf("ErrorCount = %d", got)
	}
}
