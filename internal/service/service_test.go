package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
)

// exampleSources loads the checked-in GCL example programs that
// compile cleanly (lint-demo.gcl is deliberately defective — it only
// exists to exercise the static analyzer and is covered by the lint
// tests instead).
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	dir := filepath.Join("..", "..", "examples", "gcl")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".gcl" || e.Name() == "lint-demo.gcl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(src)
	}
	if len(out) != 4 {
		t.Fatalf("expected the 4 example programs, found %d", len(out))
	}
	return out
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func fetchMetrics(t *testing.T, baseURL string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestServiceEndToEnd is the acceptance scenario: the four example
// programs submitted concurrently from 8 goroutines, verdicts matching
// what gclc computes (core.SelfStabilizing on the same compiled
// programs), and identical re-submissions answered from the cache.
func TestServiceEndToEnd(t *testing.T) {
	sources := exampleSources(t)
	svc := New(Config{Workers: 4, QueueDepth: 64, CacheEntries: 128})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Ground truth, computed the way gclc selfstab does.
	type expected struct {
		holds      bool
		reason     string
		hasWitness bool
	}
	want := make(map[string]expected)
	for name, src := range sources {
		// The service compiles every submission under the name "program";
		// match it so the verdict reason strings compare equal.
		c, err := gcl.Compile("program", src)
		if err != nil {
			t.Fatal(err)
		}
		rep := core.SelfStabilizing(c.System)
		want[name] = expected{holds: rep.Holds, reason: rep.Reason, hasWitness: len(rep.Witness) > 0}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(sources))
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, src := range sources {
				raw, err := json.Marshal(SelfStabRequest{Source: src})
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/selfstab", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				var got SelfStabResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", name, resp.StatusCode)
					return
				}
				exp := want[name]
				if got.Verdict.Holds != exp.holds || got.Verdict.Reason != exp.reason {
					errs <- fmt.Errorf("%s: verdict diverged from gclc: got (%v, %q), want (%v, %q)",
						name, got.Verdict.Holds, got.Verdict.Reason, exp.holds, exp.reason)
					return
				}
				if (len(got.Verdict.Witness) > 0) != exp.hasWitness {
					errs <- fmt.Errorf("%s: witness presence diverged", name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Identical re-submission: a cache hit, not a re-enumeration.
	before := fetchMetrics(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/selfstab", SelfStabRequest{Source: sources["dijkstra3-n2.gcl"]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submission status %d: %s", resp.StatusCode, body)
	}
	var cachedResp SelfStabResponse
	if err := json.Unmarshal(body, &cachedResp); err != nil {
		t.Fatal(err)
	}
	if !cachedResp.Cached {
		t.Fatalf("re-submission not served from cache: %s", body)
	}
	after := fetchMetrics(t, ts.URL)
	if after.Cache.Hits <= before.Cache.Hits {
		t.Fatalf("cache hit counter did not increment: %d → %d", before.Cache.Hits, after.Cache.Hits)
	}
	// Reformatting the program (comments, whitespace) still hits: the key
	// is the canonical form, not the raw text.
	resp, body = postJSON(t, ts.URL+"/v1/selfstab",
		SelfStabRequest{Source: "// reformatted\n" + sources["counter.gcl"]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reformatted status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cachedResp); err != nil {
		t.Fatal(err)
	}
	if !cachedResp.Cached {
		t.Fatalf("canonicalization missed the cache: %s", body)
	}

	if after.Requests[kindSelfStab] < goroutines*4 {
		t.Fatalf("request counter undercounts: %d", after.Requests[kindSelfStab])
	}
}

// TestServiceRefineBattery checks /v1/refine against the gclc refine
// battery, including a failing verdict with a witness.
func TestServiceRefineBattery(t *testing.T) {
	sources := exampleSources(t)
	svc := New(Config{Workers: 2, QueueDepth: 16, CacheEntries: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// A program refines itself, but broken-reset is not stabilizing to
	// itself — that verdict must fail and carry a concrete witness.
	broken := sources["broken-reset.gcl"]
	resp, body := postJSON(t, ts.URL+"/v1/refine", RefineRequest{Concrete: broken, Abstract: broken})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got RefineResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.RefinementInit.Holds || !got.Everywhere.Holds || !got.Convergence.Holds {
		t.Fatalf("self-refinement should hold: %s", body)
	}
	if got.Stabilizing.Holds {
		t.Fatalf("broken-reset must not be self-stabilizing: %s", body)
	}
	if len(got.Stabilizing.Witness)+len(got.Stabilizing.WitnessLoop) == 0 {
		t.Fatalf("failing stabilization verdict lacks a witness: %s", body)
	}
	if got.Holds {
		t.Fatal("battery conjunction should be false")
	}

	// Mismatched state spaces are a client error.
	resp, body = postJSON(t, ts.URL+"/v1/refine",
		RefineRequest{Concrete: broken, Abstract: sources["counter.gcl"]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched spaces: status %d: %s", resp.StatusCode, body)
	}
}

func TestServiceRingsim(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16, CacheEntries: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	req := RingsimRequest{Family: "dijkstra3", Procs: 5, Runs: 5, Faults: 2, Steps: 50_000, Seed: 7}
	resp, body := postJSON(t, ts.URL+"/v1/ringsim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got RingsimResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Converged != got.Runs || got.Runs != 5 {
		t.Fatalf("dijkstra3 should converge in every run: %s", body)
	}
	if got.Cached {
		t.Fatal("first submission cannot be cached")
	}

	resp, body = postJSON(t, ts.URL+"/v1/ringsim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatalf("identical simulation not served from cache: %s", body)
	}

	// Unknown family and degenerate sizes are client errors.
	for _, bad := range []RingsimRequest{
		{Family: "nope", Procs: 5},
		{Family: "dijkstra3", Procs: 2},
		{Family: "dijkstra3", Procs: 5, Runs: -1},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/ringsim", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d: %s", bad, resp.StatusCode, body)
		}
	}
}

// TestServiceTimeout holds the single worker busy so a request with a
// tiny deadline expires while queued: the client must get a prompt 504,
// not a hung connection.
func TestServiceTimeout(t *testing.T) {
	sources := exampleSources(t)
	svc := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 16})
	gate := make(chan struct{})
	svc.gate = gate
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer release() // release held jobs before teardown

	// Occupy the worker with a gated request on a long deadline.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		postJSON(t, ts.URL+"/v1/selfstab",
			SelfStabRequest{Source: sources["counter.gcl"], TimeoutMS: 30_000})
	}()
	waitFor(t, func() bool { return svc.pool.inFlight.Load() == 1 })

	started := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/selfstab",
		SelfStabRequest{Source: sources["dijkstra3-n2.gcl"], TimeoutMS: 50})
	elapsed := time.Since(started)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("504 without a usable Retry-After header: %q", ra)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout was not prompt: %v", elapsed)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("timeout error body malformed: %s", body)
	}

	release()
	<-blockerDone

	snap := fetchMetrics(t, ts.URL)
	if snap.Responses.Timeout == 0 {
		t.Fatal("timeout counter did not increment")
	}
}

// TestServiceOverflow fills the single worker and the one queue slot,
// then asserts the next submission is rejected with 429 instead of
// queuing without bound.
func TestServiceOverflow(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 16})
	gate := make(chan struct{})
	svc.gate = gate
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer release()

	// Two distinct slow requests: one occupies the worker, one the queue.
	program := func(i int) string {
		return fmt.Sprintf("var x : 0..%d;\ninit x == 0;\naction tick: true -> x := (x + 1) %% %d;", i+2, i+3)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/selfstab",
				SelfStabRequest{Source: program(i), TimeoutMS: 30_000})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("held request %d finished with %d", i, resp.StatusCode)
			}
		}(i)
		if i == 0 {
			waitFor(t, func() bool { return svc.pool.inFlight.Load() == 1 })
		} else {
			waitFor(t, func() bool { return svc.pool.depth.Load() == 1 })
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/selfstab",
		SelfStabRequest{Source: program(2), TimeoutMS: 30_000})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 without a usable Retry-After header: %q", ra)
	}

	release()
	wg.Wait()

	snap := fetchMetrics(t, ts.URL)
	if snap.Responses.Overload == 0 {
		t.Fatal("overload counter did not increment")
	}
	if snap.Queue.Capacity != 1 || snap.Queue.Workers != 1 {
		t.Fatalf("queue gauges wrong: %+v", snap.Queue)
	}
}

func TestServiceBadRequests(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4, MaxStates: 100})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"syntax error", `{"source": "var x = ;;;"}`},
		{"empty source", `{"source": ""}`},
		{"unknown field", `{"sauce": "var x : 0..1;"}`},
		{"not json", `]]]`},
		{"state space too big", `{"source": "var a : 0..9;\nvar b : 0..9;\nvar c : 0..9;\naction t: true -> a := a;"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/selfstab", "application/json",
			bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	snap := fetchMetrics(t, ts.URL)
	if snap.Responses.BadRequest != int64(len(cases)) {
		t.Fatalf("bad-request counter = %d, want %d", snap.Responses.BadRequest, len(cases))
	}
}

func TestServiceHealthz(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
}

// TestServiceLatencyHistogram checks that successful checks land in the
// per-kind latency histogram.
func TestServiceLatencyHistogram(t *testing.T) {
	sources := exampleSources(t)
	svc := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 8})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/selfstab", SelfStabRequest{Source: sources["counter.gcl"]})
	snap := fetchMetrics(t, ts.URL)
	hist := snap.Latency[kindSelfStab]
	if hist.Count != 1 {
		t.Fatalf("selfstab latency count = %d, want 1", hist.Count)
	}
	total := int64(0)
	for _, n := range hist.Buckets {
		total += n
	}
	if total != 1 {
		t.Fatalf("histogram buckets sum to %d, want 1", total)
	}
}

// TestServiceLint submits the deliberately defective lint-demo example
// and checks the endpoint agrees with the analysis package (and hence
// with `gclc lint -json`, which calls the same engine), then that an
// identical re-submission is a verdict-cache hit.
func TestServiceLint(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "gcl", "lint-demo.gcl"))
	if err != nil {
		t.Fatal(err)
	}
	source := string(raw)
	svc := New(Config{Workers: 2, QueueDepth: 16, CacheEntries: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Ground truth, computed the way runLint does.
	prog, err := gcl.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := analysis.Analyze(prog, analysis.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: source})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got LintResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("first submission cannot be cached")
	}
	if got.Program != gcl.Fingerprint(prog) || got.States != 512 || !got.Exact {
		t.Fatalf("report header: %+v", got)
	}
	if got.AnalyzerVersion != analysis.Version() {
		t.Fatalf("analyzer version: %q", got.AnalyzerVersion)
	}
	if got.Errors != 1 {
		t.Fatalf("errors = %d: %s", got.Errors, body)
	}
	if len(got.Diags) != len(truth.Diags) {
		t.Fatalf("diag count diverged from the engine: %d vs %d", len(got.Diags), len(truth.Diags))
	}
	for i := range got.Diags {
		g, w := got.Diags[i], truth.Diags[i]
		if g.Pos != w.Pos || g.Code != w.Code || g.Severity != w.Severity ||
			g.Confidence != w.Confidence || g.Msg != w.Msg {
			t.Fatalf("diag %d diverged:\n service: %+v\n engine:  %+v", i, g, w)
		}
	}

	// Identical re-submission: served from the verdict cache.
	before := fetchMetrics(t, ts.URL)
	resp, body = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: source})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submission status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatalf("re-submission not served from cache: %s", body)
	}
	after := fetchMetrics(t, ts.URL)
	if after.Cache.Hits <= before.Cache.Hits {
		t.Fatalf("cache hit counter did not increment: %d → %d", before.Cache.Hits, after.Cache.Hits)
	}

	// The unversioned /lint alias answers identically (same cache key).
	resp, body = postJSON(t, ts.URL+"/lint", LintRequest{Source: source})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alias status %d: %s", resp.StatusCode, body)
	}
	var alias LintResponse
	if err := json.Unmarshal(body, &alias); err != nil {
		t.Fatal(err)
	}
	if !alias.Cached || alias.Errors != got.Errors || len(alias.Diags) != len(got.Diags) {
		t.Fatalf("alias diverged: %s", body)
	}

	if after.Requests[kindLint] < 2 {
		t.Fatalf("lint request counter undercounts: %d", after.Requests[kindLint])
	}
}

// TestServiceLintClean: a well-formed program lints to an empty (not
// null) diagnostics array with zero errors.
func TestServiceLintClean(t *testing.T) {
	sources := exampleSources(t)
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: sources["counter.gcl"]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"diags":[]`)) {
		t.Fatalf("clean lint must serialize diags as [], not null: %s", body)
	}
	var got LintResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Errors != 0 || len(got.Diags) != 0 {
		t.Fatalf("counter.gcl should lint clean: %s", body)
	}

	// A syntactically broken program is a 400, same as the other kinds.
	resp, _ = postJSON(t, ts.URL+"/v1/lint", LintRequest{Source: "var x = ;;;"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d, want 400", resp.StatusCode)
	}
}

// TestServiceLintBudget: a budget too small for the exact tier is not
// an error — the response reports exact=false with approx verdicts.
func TestServiceLintBudget(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/lint", LintRequest{
		Source: "var x : 0..3;\naction dead: x > 9 -> x := 0;\naction live: x < 3 -> x := x + 1;",
		Budget: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got LintResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Exact {
		t.Fatalf("2 gas cannot finish a 4-state sweep: %s", body)
	}
	found := false
	for _, d := range got.Diags {
		if d.Code == analysis.CodeDeadGuard {
			found = true
			if d.Confidence != analysis.ConfApprox {
				t.Fatalf("budget-starved lint must report approx confidence: %s", body)
			}
		}
	}
	if !found {
		t.Fatalf("interval-tier dead guard missing: %s", body)
	}
}

// bigSelfStabSource declares 10^6 states: enumerating it takes far
// longer than the deadlines the tests below give it.
const bigSelfStabSource = `var a : 0..9; var b : 0..9; var c : 0..9;
var d : 0..9; var e : 0..9; var f : 0..9;
action inc: a < 9 -> a := a + 1;
action mv: b != c -> b := c;
action rot: true -> f := (f + 1) % 10;`

// TestServiceBudgetMetersEnumeration: the request budget is spent by the
// enumeration too, so a tiny budget fails during compilation with 422.
func TestServiceBudgetMetersEnumeration(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/selfstab", SelfStabRequest{Source: bigSelfStabSource, Budget: 10})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "budget exhausted") {
		t.Fatalf("status %d, want 422 budget exhausted: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/refine", RefineRequest{
		Concrete: bigSelfStabSource, Abstract: bigSelfStabSource, Budget: 10})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("refine: status %d, want 422: %s", resp.StatusCode, body)
	}
}

// TestServiceRefineSpaceMismatchBeforeEnumeration: programs over different
// state spaces are refused at admission, so even a budget too small to
// enumerate either one gets 400 naming the mismatch, not 422.
func TestServiceRefineSpaceMismatchBeforeEnumeration(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	small := "var a : 0..1;\naction flip: true -> a := 1 - a;"
	resp, body := postJSON(t, ts.URL+"/v1/refine", RefineRequest{
		Concrete: bigSelfStabSource, Abstract: small, Budget: 1})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "different state spaces") {
		t.Fatalf("mismatched pair: status %d, want 400 naming the mismatch: %s", resp.StatusCode, body)
	}
	// A matched pair still reaches the checker: budget 1 exhausts it.
	resp, body = postJSON(t, ts.URL+"/v1/refine", RefineRequest{Concrete: small, Abstract: small, Budget: 1})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("matched pair: status %d, want 422: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/refine", RefineRequest{Concrete: small, Abstract: small})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matched pair: status %d: %s", resp.StatusCode, body)
	}
}

// TestServiceTimeoutFreesEnumeratingWorker: a deadline that fires while
// the only worker is still enumerating cancels the enumeration through
// the request's gas meter, so the worker is free long before the
// enumeration could have finished and serves the next request.
func TestServiceTimeoutFreesEnumeratingWorker(t *testing.T) {
	prog, err := gcl.Parse(bigSelfStabSource)
	if err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	if _, err := gcl.CompileProgram("program", prog); err != nil {
		t.Fatal(err)
	}
	full := time.Since(started)

	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/selfstab", SelfStabRequest{Source: bigSelfStabSource, TimeoutMS: 20})
	timedOut := time.Now()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	for svc.pool.inFlight.Load() != 0 {
		if time.Since(timedOut) > full/2 {
			t.Fatalf("worker still busy %v after the 504; an uncancelled enumeration takes %v", time.Since(timedOut), full)
		}
		time.Sleep(time.Millisecond)
	}
	resp, body = postJSON(t, ts.URL+"/v1/selfstab", SelfStabRequest{Source: "var x : 0..4;\naction tick: true -> x := (x + 1) % 5;"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status %d: %s", resp.StatusCode, body)
	}
}

// tableSource declares 10^6 states and ten actions that each read five
// of the six variables: their tables fill all |Σ| = 10^6 entries the
// enumeration may spend on them, so table filling is a large share of
// the work a budget or deadline has to bound.
const tableSource = `var a : 0..9; var b : 0..9; var c : 0..9;
var d : 0..9; var e : 0..9; var f : 0..9;
action t1: a + b + c + d > 30 -> e := (e + 1) % 10;
action t2: b + c + d + e > 30 -> f := (f + 1) % 10;
action t3: c + d + e + f > 30 -> a := (a + 1) % 10;
action t4: d + e + f + a > 30 -> b := (b + 1) % 10;
action t5: e + f + a + b > 30 -> c := (c + 1) % 10;
action t6: f + a + b + c > 30 -> d := (d + 1) % 10;
action u1: a == b && c == d -> e := a;
action u2: b == c && d == e -> f := b;
action u3: c == d && e == f -> a := c;
action u4: d == e && f == a -> b := d;`

// TestServiceBudgetAndTimeoutBoundTableFilling: the request's budget and
// deadline meter the filling of an action's tables as they meter the
// sweep: a tiny budget is a 422, and a deadline that fires while the only
// worker is tabulating is a 504 that frees the worker promptly.
func TestServiceBudgetAndTimeoutBoundTableFilling(t *testing.T) {
	prog, err := gcl.Parse(tableSource)
	if err == nil {
		err = gcl.Check(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	if _, err := gcl.Lower(nil, prog); err != nil {
		t.Fatal(err)
	}
	tabulate := time.Since(started)

	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/selfstab", SelfStabRequest{Source: tableSource, Budget: 1000})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "budget exhausted") {
		t.Fatalf("status %d, want 422 budget exhausted: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/selfstab", SelfStabRequest{Source: tableSource, TimeoutMS: 5})
	timedOut := time.Now()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	for svc.pool.inFlight.Load() != 0 {
		if time.Since(timedOut) > tabulate {
			t.Fatalf("worker still busy %v after the 504; filling the tables alone takes %v", time.Since(timedOut), tabulate)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
