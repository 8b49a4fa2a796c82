package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServiceRequestID: every response carries an X-Request-Id header,
// and ids differ between requests.
func TestServiceRequestID(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatal("response without X-Request-Id")
		}
		if ids[id] {
			t.Fatalf("request id %q repeated", id)
		}
		ids[id] = true
	}
}

// TestServicePanickingHandler: a handler that panics produces a 500
// JSON error naming the request id — not a severed connection — and the
// server keeps serving afterwards.
func TestServicePanickingHandler(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer svc.Close()
	svc.mux.HandleFunc("POST /v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/boom", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" || !strings.Contains(e.Error, id) {
		t.Fatalf("error %q does not carry the request id %q", e.Error, id)
	}
	if !strings.Contains(e.Error, "handler exploded") {
		t.Fatalf("error %q does not name the panic", e.Error)
	}

	// The server survived.
	ok, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", ok.StatusCode)
	}
	snap := fetchMetrics(t, ts.URL)
	if snap.Responses.Internal == 0 {
		t.Fatal("internal counter did not increment")
	}
}

// TestServicePanickingCheck: a panic inside a worker-pool job surfaces
// as a 500 JSON error with the request id, and the worker survives to
// run the next job.
func TestServicePanickingCheck(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer svc.Close()

	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/test", nil)
	r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, "req-test-1"))
	svc.execute(w, r, kindSelfStab, "", 0, func(ctx context.Context) (any, error) {
		panic("check exploded")
	})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
	}
	var e errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "check exploded") || !strings.Contains(e.Error, "req-test-1") {
		t.Fatalf("error %q lacks the panic or the request id", e.Error)
	}

	// The single worker is still alive: a well-behaved job completes.
	w2 := httptest.NewRecorder()
	svc.execute(w2, httptest.NewRequest("POST", "/v1/test", nil), kindSelfStab, "", 0,
		func(ctx context.Context) (any, error) { return map[string]bool{"ok": true}, nil })
	if w2.Code != http.StatusOK {
		t.Fatalf("worker did not survive the panic: %d %s", w2.Code, w2.Body.String())
	}
}

// TestPoolPanicBackstop: a panic escaping a job's own recovery is
// contained by the worker and counted, and the worker keeps draining
// the queue.
func TestPoolPanicBackstop(t *testing.T) {
	p := newPool(1, 4)
	defer p.close()

	if !p.submit(&job{ctx: context.Background(), run: func(context.Context) { panic("raw job panic") }}) {
		t.Fatal("submit failed")
	}
	done := make(chan struct{})
	if !p.submit(&job{ctx: context.Background(), run: func(context.Context) { close(done) }}) {
		t.Fatal("submit failed")
	}
	<-done
	if p.panics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", p.panics.Load())
	}
}

// TestPoolSubmitAfterClose: a handler that outlives its server's Close
// (a fleet replica crashing mid-request) gets a refusal from submit,
// not a send on the closed queue.
func TestPoolSubmitAfterClose(t *testing.T) {
	p := newPool(1, 4)
	p.close()
	if p.submit(&job{ctx: context.Background(), run: func(context.Context) {}}) {
		t.Fatal("closed pool accepted a job")
	}
	if d := p.depth.Load(); d != 0 {
		t.Fatalf("depth after refused submit = %d, want 0", d)
	}
}

// TestServiceProtocolParamsAreBadRequests: every endpoint that builds a
// simulator protocol from a family name answers a kstate counter
// modulus below 2, or an unknown family, with 400 rather than a panic's
// 500.
func TestServiceProtocolParamsAreBadRequests(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for _, path := range []string{"/v1/ringsim", "/v1/cluster", "/v1/chaos"} {
		for _, tc := range []struct {
			name string
			body map[string]any
			want string
		}{
			{"kstate k=1", map[string]any{"family": "kstate", "procs": 5, "k": 1}, "k ≥ 2"},
			{"unknown family", map[string]any{"family": "nope", "procs": 5}, "unknown family"},
		} {
			resp, body := postJSON(t, ts.URL+path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400: %s", path, tc.name, resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("%s %s: body %s does not mention %q", path, tc.name, body, tc.want)
			}
		}
	}
}

// TestServiceOverflowingSpaceIs400: a program whose declarations span
// more than 2^62 states is refused at admission with the state-space
// 400 on every endpoint that takes GCL, not a 500 from the space
// constructor's panic.
func TestServiceOverflowingSpaceIs400(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	huge := `
var a : 0..999999; var b : 0..999999; var c : 0..999999; var d : 0..999999;
var e : 0..999999; var f : 0..999999; var g : 0..999999; var h : 0..999999;
init a == 0;
action t: true -> a := a;
`
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/selfstab", map[string]any{"source": huge}},
		{"/v1/lint", map[string]any{"source": huge}},
		{"/v1/refine", map[string]any{"concrete": huge, "abstract": huge}},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "above the server's limit") {
			t.Fatalf("%s: %d %s", tc.path, resp.StatusCode, body)
		}
	}
}
