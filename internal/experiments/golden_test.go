package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestGoldenE1toE18 runs E1–E18 in process and compares their output,
// rendered as cmd/experiments prints it, byte for byte with the recorded
// run in docs/experiments-output.txt. These experiments are deterministic;
// E19–E22 are not compared because some of their rows are wall-clock
// measurements.
func TestGoldenE1toE18(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	raw, err := os.ReadFile("../../docs/experiments-output.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, _, found := strings.Cut(string(raw), "E19 — ")
	if !found {
		t.Fatal("docs/experiments-output.txt has no E19 section")
	}
	var b strings.Builder
	for _, e := range All()[:18] {
		b.WriteString(e.Run().String())
		b.WriteString("\n")
	}
	if got := b.String(); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, recorded run %d", len(gl), len(wl))
	}
}

// TestGoldenE19 runs E19 and compares its -json rendering, as
// cmd/experiments prints it, byte for byte with the recorded
// BENCH_fleet.json. E19's fleets run with hedging off and manual
// anti-entropy rounds, so the report is deterministic; a change that
// moves a row regenerates the file with make bench-fleet on purpose.
func TestGoldenE19(t *testing.T) {
	if testing.Short() {
		t.Skip("E19 runs in-process fleets")
	}
	want, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]*Report{E19Fleet()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("E19 differs from BENCH_fleet.json:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}
