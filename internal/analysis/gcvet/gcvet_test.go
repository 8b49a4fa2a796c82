package gcvet

import (
	"strings"
	"testing"
)

func TestDetRandFlagged(t *testing.T) {
	runFixture(t, "repro/internal/sim", DetRand)
}

func TestDetRandAllowlistClean(t *testing.T) {
	runFixture(t, "repro/internal/service", DetRand)
}

func TestGasLoop(t *testing.T) {
	runFixture(t, "repro/internal/mc", GasLoop)
}

func TestGasLoopGCLFlagged(t *testing.T) {
	runFixture(t, "unmetered/internal/gcl", GasLoop)
}

func TestGasLoopGCLClean(t *testing.T) {
	runFixture(t, "repro/internal/gcl", GasLoop)
}

func TestMapIter(t *testing.T) {
	runFixture(t, "repro/internal/cluster/chaos", MapIter)
}

func TestGoLeak(t *testing.T) {
	runFixture(t, "repro/internal/worker", GoLeak)
}

func TestEventKind(t *testing.T) {
	runFixture(t, "repro/internal/cluster", EventKind)
}

func TestEventKindJournal(t *testing.T) {
	runFixture(t, "repro/internal/journal", EventKind)
}

func TestEventKindFleet(t *testing.T) {
	runFixture(t, "repro/internal/fleet", EventKind)
}

// TestWaiverHygiene asserts the waiver contract directly: a want
// comment cannot share a line with a waiver comment (everything after
// the directive is the reason), so the hygiene fixture is checked
// without them.
func TestWaiverHygiene(t *testing.T) {
	ld := newLoader(t)
	files, pkg, info := ld.target("repro/internal/hygiene")
	diags := runAnalyzers(All(), ld.fset, files, pkg, info)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "must carry a reason") {
		t.Errorf("diag 0 = %q, want reasonless-waiver finding", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, `unknown waiver directive "//gcvet:detrnd-ok"`) {
		t.Errorf("diag 1 = %q, want unknown-directive finding", diags[1].Message)
	}
	for _, d := range diags {
		if d.Analyzer != "gcvet" {
			t.Errorf("hygiene finding attributed to %q, want gcvet", d.Analyzer)
		}
	}
}

// TestWaiverHygieneSubset: directive validation runs against the full
// registry even when only a subset of analyzers is selected — a
// -detrand-only run must not report every //gcvet:leak-ok as unknown.
func TestWaiverHygieneSubset(t *testing.T) {
	ld := newLoader(t)
	files, pkg, info := ld.target("repro/internal/worker") // carries a leak-ok waiver
	if diags := runAnalyzers([]*Analyzer{DetRand}, ld.fset, files, pkg, info); len(diags) != 0 {
		t.Fatalf("subset run produced diagnostics: %+v", diags)
	}
}

// TestRegistryNames pins the analyzer names: they are flag names and
// waiver directives, so renames are breaking changes.
func TestRegistryNames(t *testing.T) {
	want := []string{"detrand", "gasloop", "mapiter", "leak", "eventkind"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}
