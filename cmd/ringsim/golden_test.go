package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRuns are the seeded simulator runs whose output TestRunGolden
// pins: every family under every daemon on a ring laid out past its
// template, one -trace and one -service run per family, kstate at
// K = 100, whose neighborhoods span more points than a 3- or 4-state
// process does, and a greedy -trace run, whose daemon must see each
// configuration it chooses in.
func goldenRuns() [][]string {
	var runs [][]string
	for _, fam := range []string{"dijkstra3", "dijkstra4", "newthree", "kstate"} {
		for _, d := range []string{"random", "roundrobin", "greedy"} {
			runs = append(runs, []string{"-protocol", fam, "-daemon", d, "-p", "7",
				"-runs", "20", "-faults", "4", "-steps", "5000", "-seed", "11"})
		}
		runs = append(runs,
			[]string{"-protocol", fam, "-p", "7", "-trace", "-faults", "6", "-seed", "1"},
			[]string{"-protocol", fam, "-daemon", "greedy", "-p", "9", "-service",
				"-faults", "5", "-steps", "400", "-seed", "5"})
	}
	for _, d := range []string{"random", "roundrobin", "greedy"} {
		runs = append(runs, []string{"-protocol", "kstate", "-k", "100", "-daemon", d, "-p", "12",
			"-runs", "10", "-faults", "6", "-steps", "20000", "-seed", "13"})
	}
	return append(runs,
		[]string{"-protocol", "kstate", "-k", "100", "-p", "8", "-trace", "-faults", "5", "-seed", "2"},
		[]string{"-protocol", "kstate", "-k", "100", "-p", "8", "-service", "-faults", "5", "-steps", "300", "-seed", "4"},
		[]string{"-protocol", "dijkstra3", "-p", "7", "-trace", "-daemon", "greedy", "-faults", "6", "-seed", "1"})
}

// TestRunGolden pins the output of seeded ringsim runs byte for byte:
// any change to how the simulator evaluates a ring, steps it or
// schedules its moves shows up as a diff here.
//
// Regenerate deliberately with:
//
//	go test ./cmd/ringsim -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range goldenRuns() {
		got.WriteString("$ ringsim " + strings.Join(args, " ") + "\n")
		if err := run(args, &got); err != nil {
			t.Fatalf("ringsim %s: %v", strings.Join(args, " "), err)
		}
	}
	path := filepath.Join("testdata", "ringsim.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("ringsim output diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got.String(), want)
	}
}
