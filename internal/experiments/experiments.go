// Package experiments regenerates every result of the paper as a
// structured report: one experiment per figure, listing, lemma, and
// theorem (E1–E13, indexed in DESIGN.md) plus nine extension experiments (E14–E22). The cmd/experiments binary
// prints the reports, the repository benchmarks time them, and
// EXPERIMENTS.md records their output. Each row carries an expectation:
// a row "passes" when the mechanized outcome matches the recorded
// expectation — including the cases where the mechanized outcome is a
// documented deviation from the paper's informal claim.
package experiments

import (
	"fmt"
	"strings"
)

// Row is one checked fact within an experiment.
type Row struct {
	// Name identifies the instance, e.g. "N=3: [C1 ⪯ BTR]".
	Name string
	// Detail is the verdict reason or measured value.
	Detail string
	// Pass reports whether the outcome matches the expectation.
	Pass bool
}

// Report is one experiment's outcome.
type Report struct {
	// ID is the experiment index (E1..E16).
	ID string
	// Title summarizes the experiment.
	Title string
	// Claim restates what the paper asserts (or implies).
	Claim string
	// Rows are the checked instances.
	Rows []Row
	// Notes records findings and deviations.
	Notes []string
}

// Pass reports whether every row met its expectation.
func (r *Report) Pass() bool {
	for _, row := range r.Rows {
		if !row.Pass {
			return false
		}
	}
	return true
}

// String renders the report as text.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s — %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "  claim: %s\n", r.Claim)
	for _, row := range r.Rows {
		mark := "✓"
		if !row.Pass {
			mark = "✗"
		}
		fmt.Fprintf(&b, "  %s %-40s %s\n", mark, row.Name, row.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// expectRow builds a row that passes when got == want.
func expectRow(name string, got, want bool, detail string) Row {
	return Row{Name: name, Detail: detail, Pass: got == want}
}

// Experiment is one entry of the suite: its ID and title, known without
// running it, and the function that runs it. Run's report carries the
// same ID and title.
type Experiment struct {
	ID, Title string
	Run       func() *Report
}

// All returns the experiments in order. Each function is self-contained
// and deterministic.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1: plain refinement is not stabilization preserving", E1Fig1},
		{"E2", "Section 1: compilation does not preserve tolerance", E2Compiler},
		{"E3", "Section 1: bidding server under single-bid corruption", E3Bidding},
		{"E4", "Theorem 6: BTR [] W1 [] W2 is stabilizing to BTR", E4Theorem6},
		{"E5", "Lemma 7: [C1 ⪯ BTR] via the 4-state mapping", E5Lemma7},
		{"E6", "Theorem 8 + Dijkstra's 4-state system", E6Dijkstra4},
		{"E7", "Lemma 9: BTR3 [] W1'' [] W2' is stabilizing to BTR", E7Lemma9},
		{"E8", "Lemma 10, Theorem 11: Dijkstra's 3-state system", E8Dijkstra3},
		{"E9", "Section 6: the new 3-state system C3", E9NewThreeState},
		{"E10", "K-state system (technical-report derivation)", E10KState},
		{"E11", "Convergence time of the derived protocols", E11Convergence},
		{"E12", "Wrapper interference: W1'' creation vs W2' deletion", E12WrapperInterference},
		{"E13", "Refinement hierarchy: everywhere ⊂ convergence ⊂ everywhere-eventually", E13RefinementHierarchy},
		{"E14", "Extension: the derived systems under a synchronous daemon", E14SynchronousDaemon},
		{"E15", "Extension: Lemma 9 under a weakly-fair daemon", E15FairDaemon},
		{"E16", "Extension: fault-recovery curve in the message-passing cluster runtime", E16ClusterRecovery},
		{"E17", "Extension: recovery under sustained fault pressure and partitions (chaos campaigns)", E17ChaosCampaign},
		{"E18", "Extension: crash recovery from validated snapshots vs arbitrary resume", E18CrashRecovery},
		{"E19", "Extension: replica fleet scaling — consistent-hash routing and anti-entropy sync", E19Fleet},
		{"E20", "Extension: event-sourced journal — replay equivalence, torn-tail resync, group-commit throughput", E20Journal},
		{"E21", "Extension: journal retention — bounded disk, crash-safe compaction, degradation ladder", E21Retention},
		{"E22", "Extension: gray-failure hardening — breakers, hedged forwards, deadline budgets", E22GrayFailure},
	}
}
