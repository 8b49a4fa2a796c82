package service

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

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
