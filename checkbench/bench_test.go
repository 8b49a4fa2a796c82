package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// streamOf builds the named workload's stream for seed; hot-cache reads
// its population from the repository root.
func streamOf(t *testing.T, workload string, seed int64) *stream {
	t.Helper()
	switch workload {
	case wlColdCheck:
		return coldStream(seed)
	case wlHotCache:
		progs, err := hotPrograms("..")
		if err != nil {
			t.Fatal(err)
		}
		pop, err := hotRequests(progs, newOracle())
		if err != nil {
			t.Fatal(err)
		}
		return hotStream(seed, pop)
	default:
		return fleetStream(seed, fleetReplicas)
	}
}

// take draws up to n requests, rendered as entry replica, path and body.
func take(s *stream, n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		req, ok := s.next()
		if !ok {
			break
		}
		out = append(out, []byte(fmt.Sprintf("%d %s %s", req.entry, req.path(), req.body)))
	}
	return out
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		a, b := take(streamOf(t, w, 7), 3000), take(streamOf(t, w, 7), 3000)
		if len(a) != 3000 || len(b) != 3000 {
			t.Fatalf("%s: stream ended early (%d, %d requests)", w, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two streams of seed 7:\n%s\n%s", w, i, a[i], b[i])
			}
		}
		c := take(streamOf(t, w, 8), 3000)
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
	}
}

func TestColdCheckNeverRepeatsAKindFingerprintPair(t *testing.T) {
	s := coldStream(3)
	seen := map[string]bool{}
	kinds := map[string]int{}
	for {
		req, ok := s.next()
		if !ok {
			break
		}
		a, err := admit(req, untimed)
		if err != nil {
			t.Fatalf("%s %s: %v", req.kind, req.name, err)
		}
		id := req.kind + "|" + strings.Join(a.fps, "|")
		if seen[id] {
			t.Fatalf("(kind, fingerprint) of %s %s repeats", req.kind, req.name)
		}
		seen[id] = true
		kinds[req.kind]++
	}
	// The stream must outlast any run: at the defining machine's ~300
	// requests/s, 2 s of warm-up and 15 s measured use about 5000.
	if len(seen) < 12000 {
		t.Errorf("cold-check stream holds only %d requests", len(seen))
	}
	for _, k := range []string{service.KindSelfStab, service.KindLint, service.KindRefine} {
		if kinds[k] == 0 {
			t.Errorf("cold-check stream has no %s request", k)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, err := percentile(sorted(999), 99); err == nil {
		t.Error("p99 of 999 samples has only 9 beyond it, want an error")
	}
	if v, err := percentile(sorted(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond it)", v, err)
	}
	if v, err := percentile(sorted(1001), 99); err != nil || v != 991 {
		t.Errorf("p99 of 1..1001 = %v, %v; want 991 (nearest rank)", v, err)
	}
	if v, err := percentile(sorted(100), 50); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	if _, err := percentile(sorted(19), 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it, want an error")
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100 * us},
		{name: "a", parent: 0, start: 10 * us, end: 30 * us},
		{name: "b", parent: 0, start: 20 * us, end: 50 * us},  // overlaps a: 10..50 counts once
		{name: "c", parent: 0, start: 90 * us, end: 120 * us}, // runs past the parent: clipped at 100
		{name: "d", parent: 2, start: 25 * us, end: 35 * us},
		{name: "e", parent: 2, start: 30 * us, end: 45 * us}, // overlaps d: 25..45 counts once
	}
	want := []time.Duration{50 * us, 20 * us, 10 * us, 30 * us, 10 * us, 15 * us}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestLayerSelfTimesPlusUnattributedEqualE2EP50(t *testing.T) {
	tr := &tracer{classes: map[string]*classStats{
		"selfstab/hit": {e2e: []float64{100, 120, 140}, layers: map[string][]float64{
			"gcl.parse": {20, 30, 40}, "service.encode": {5, 6, 7}}},
		"lint/miss": {e2e: []float64{900}, layers: map[string][]float64{
			"gcl.parse": {50}, "analysis.lint": {700}}},
	}}
	var lines []string
	m := layerMetrics([]*tracer{tr}, func(l string) { lines = append(lines, l) })
	// Weights 3/4 and 1/4; class p50s 120 and 900.
	wantE2E := 0.75*120 + 0.25*900
	sum := m["http.unattributed_us"]
	for _, l := range layerOrder {
		sum += m[l+"_us"]
	}
	if math.Abs(sum-wantE2E) > 1e-9 {
		t.Errorf("layers + unattributed = %v, want the weighted e2e p50 %v", sum, wantE2E)
	}
	if got, want := m["gcl.parse_us"], 0.75*30+0.25*50; math.Abs(got-want) > 1e-9 {
		t.Errorf("gcl.parse_us = %v, want %v", got, want)
	}
	if len(lines) != 2 {
		t.Errorf("want one report line per class, got %q", lines)
	}
}
