package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsPass runs the full E1–E13 suite: every row must match
// its recorded expectation (including the documented deviations).
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, e := range All() {
		rep := e.Run()
		if !rep.Pass() {
			t.Errorf("%s failed:\n%s", rep.ID, rep)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := E1Fig1()
	s := rep.String()
	for _, want := range []string{"E1", "PASS", "claim:", "✓"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report rendering missing %q:\n%s", want, s)
		}
	}
}

func TestExperimentIDsUniqueAndOrdered(t *testing.T) {
	seen := make(map[string]bool)
	for i, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		rep := e.Run()
		if rep.ID != e.ID || rep.Title != e.Title {
			t.Fatalf("entry %s %q runs report %s %q", e.ID, e.Title, rep.ID, rep.Title)
		}
		if rep.Title == "" || rep.Claim == "" || len(rep.Rows) == 0 {
			t.Fatalf("experiment %d (%s) under-specified", i, rep.ID)
		}
		if testing.Short() && i >= 3 {
			break
		}
	}
}

func TestFailingRowRendering(t *testing.T) {
	rep := &Report{ID: "EX", Title: "t", Claim: "c",
		Rows: []Row{{Name: "r", Detail: "d", Pass: false}}}
	if rep.Pass() {
		t.Fatal("Pass with failing row")
	}
	if !strings.Contains(rep.String(), "FAIL") || !strings.Contains(rep.String(), "✗") {
		t.Fatalf("rendering = %q", rep.String())
	}
}
