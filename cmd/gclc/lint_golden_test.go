package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ring"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestLintJSONGolden pins the bytes of `gclc lint -json` for lint-demo
// and Dijkstra's 3-state ring at N = 6. TestLintDemoGolden compares
// decoded fields; this one also catches a drift in field order,
// escaping or indentation, which the verdict cache and the journal
// would carry as a different report.
//
// Regenerate deliberately with:
//
//	go test ./cmd/gclc -run TestLintJSONGolden -update
func TestLintJSONGolden(t *testing.T) {
	for _, tc := range []struct{ golden, path string }{
		{"lint-demo.golden.json", filepath.Join("..", "..", "examples", "gcl", "lint-demo.gcl")},
		{"lint-d3n6.golden.json", writeTemp(t, "d3n6.gcl", ring.Dijkstra3GCL(6))},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var b strings.Builder
			_ = run([]string{"lint", "-json", tc.path}, &b) // lint-demo exits 1 by design
			checkGolden(t, filepath.Join("testdata", tc.golden), []byte(b.String()))
		})
	}
}

// checkGolden compares got with the golden file at path, rewriting it
// first under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("output diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
