package experiments

import (
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
