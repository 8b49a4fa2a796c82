package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
	"repro/internal/ring"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// elapsedField is the one field of a lint body that varies between runs.
var elapsedField = regexp.MustCompile(`,"elapsed_us":\d+`)

// TestLintBodyGolden pins the bytes of the /v1/lint body, elapsed_us
// removed, for lint-demo and Dijkstra's 3-state ring at N = 6, and
// checks that a cache hit re-encodes the same bytes with cached set.
// Cached and journaled lint verdicts are these bytes, so a drift in
// field order or escaping is a behavior change.
//
// Regenerate deliberately with:
//
//	go test ./internal/service -run TestLintBodyGolden -update
func TestLintBodyGolden(t *testing.T) {
	demo, err := os.ReadFile(filepath.Join("..", "..", "examples", "gcl", "lint-demo.gcl"))
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, QueueDepth: 16, CacheEntries: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for _, tc := range []struct{ golden, source string }{
		{"lint-demo.golden.json", string(demo)},
		{"lint-d3n6.golden.json", ring.Dijkstra3GCL(6)},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: tc.source})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			got := elapsedField.ReplaceAll(body, nil)
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
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
			if !bytes.Equal(got, want) {
				t.Fatalf("/v1/lint body diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}

			_, body = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: tc.source})
			hit := elapsedField.ReplaceAll(body, nil)
			if want := bytes.Replace(want, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit, want) {
				t.Fatalf("cache hit body differs from the miss:\n got  %s\n want %s", hit, want)
			}
		})
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestLintEncodeAllocs bounds the allocations of encoding the D3 N = 6
// lint body (55 diagnostics) the way writeJSON does: the encoder itself
// and nothing per diagnostic, so the severity and confidence names are
// not rebuilt on every call.
func TestLintEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so encoding/json's pooled encoder state allocates")
	}
	prog, err := gcl.Parse(ring.Dijkstra3GCL(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, analysis.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	resp := LintResponse{Program: gcl.Fingerprint(prog), States: res.States, Exact: res.Exact,
		AnalyzerVersion: analysis.Version(), Errors: analysis.ErrorCount(res.Diags), Diags: res.Diags}
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(20, func() {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("encoding the D3 N = 6 lint body (%d diagnostics) makes %.0f allocations, want at most 2", len(res.Diags), allocs)
	}
}
