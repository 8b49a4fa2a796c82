package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/service/cache"
)

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func mustUnmarshal(t *testing.T, raw []byte, into any) {
	t.Helper()
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

func containsStr(b []byte, sub string) bool { return bytes.Contains(b, []byte(sub)) }

// ringsimBody builds a small deterministic ringsim request; distinct
// seeds give distinct cache keys, so each seed is one computed verdict.
func ringsimBody(seed int64) map[string]any {
	return map[string]any{
		"family": "dijkstra3", "procs": 3, "seed": seed,
		"runs": 2, "steps": 2000, "faults": 1,
	}
}

// ringsimKey mirrors handleRingsim's cache key for ringsimBody(seed).
func ringsimKey(seed int64) string {
	return cache.Key(kindRingsim, "dijkstra3", "random",
		"3", "3", fmt.Sprint(seed), "1", "2000", "2")
}

// waitJournalIdle waits until every accepted async event is flushed.
func waitJournalIdle(t *testing.T, svc *Server) {
	t.Helper()
	waitFor(t, func() bool { return svc.journal.j.Depth() == 0 })
}

// TestServiceJournalReplayRestoresState: a journaled server's verdict
// cache and /metrics counters survive restart by replay alone — no
// cache snapshot file involved.
func TestServiceJournalReplayRestoresState(t *testing.T) {
	backend := journal.NewMemBackend(nil)
	svc := New(Config{Workers: 2, QueueDepth: 16, JournalBackend: backend})
	ts := httptest.NewServer(svc)
	for seed := int64(0); seed < 3; seed++ {
		resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, body)
		}
	}
	waitJournalIdle(t, svc)
	golden := fetchMetrics(t, ts.URL)
	ts.Close()
	svc.Close()

	// Restart on the same journal bytes: replay must reconstruct the
	// cache (hits, no recompute) and the counters (journal-lifetime).
	svc2 := New(Config{Workers: 2, QueueDepth: 16, JournalBackend: backend})
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	if st := svc2.journal.j.ReplayStats(); st.Events == 0 {
		t.Fatalf("restart replayed nothing: %+v", st)
	}
	replayed := fetchMetrics(t, ts2.URL)
	if replayed.Requests[kindRingsim] != golden.Requests[kindRingsim] {
		t.Fatalf("replayed requests.ringsim = %d, want %d",
			replayed.Requests[kindRingsim], golden.Requests[kindRingsim])
	}
	if replayed.Responses.OK != golden.Responses.OK {
		t.Fatalf("replayed ok = %d, want %d", replayed.Responses.OK, golden.Responses.OK)
	}
	if got, want := replayed.Latency[kindRingsim].Count, golden.Latency[kindRingsim].Count; got != want {
		t.Fatalf("replayed latency count = %d, want %d", got, want)
	}
	for seed := int64(0); seed < 3; seed++ {
		resp, body := postJSON(t, ts2.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replayed seed %d: %d: %s", seed, resp.StatusCode, body)
		}
		var rr RingsimResponse
		mustUnmarshal(t, body, &rr)
		if !rr.Cached {
			t.Fatalf("seed %d not served from replayed cache: %s", seed, body)
		}
	}
}

// TestServiceCrashReplayEquivalence is the acceptance scenario: a
// journaled checkd under sequential load over a torn backend (the
// storage-fault model of a hard kill mid-batch: one append persists a
// prefix but acks, then the disk is dead), restarted on the surviving
// bytes, must match a reference run's golden state exactly minus the
// acknowledged-but-unflushed suffix — bounded by one batch plus the
// fire-and-forget events queued at death.
func TestServiceCrashReplayEquivalence(t *testing.T) {
	const maxBatch = 8
	const maxRequests = 12

	// Crash run: issue requests until the backend tears.
	tb := journal.NewTornBackend(10, 2)
	crash := New(Config{Workers: 2, QueueDepth: 16,
		JournalBackend: tb, JournalMaxBatch: maxBatch})
	tsCrash := httptest.NewServer(crash)
	done := 0
	for seed := int64(0); seed < maxRequests; seed++ {
		resp, body := postJSON(t, tsCrash.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("crash run seed %d: %d: %s", seed, resp.StatusCode, body)
		}
		done++
		if tb.Torn() {
			break
		}
	}
	if !tb.Torn() {
		t.Fatalf("backend never tore within %d requests", maxRequests)
	}
	tsCrash.Close()
	// Hard kill: no Close, no drain — only the torn bytes survive.
	surviving := tb.Bytes()

	// Reference run: the same done-request workload on a healthy
	// journal, drained cleanly. This is the golden state.
	ref := New(Config{Workers: 2, QueueDepth: 16,
		JournalBackend: journal.NewMemBackend(nil), JournalMaxBatch: maxBatch})
	tsRef := httptest.NewServer(ref)
	for seed := int64(0); seed < int64(done); seed++ {
		resp, body := postJSON(t, tsRef.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference seed %d: %d: %s", seed, resp.StatusCode, body)
		}
	}
	waitJournalIdle(t, ref)
	golden := fetchMetrics(t, tsRef.URL)

	// Restart on the surviving bytes: New replays them before returning.
	restarted := New(Config{Workers: 2, QueueDepth: 16,
		JournalBackend: journal.NewMemBackend(surviving), JournalMaxBatch: maxBatch})
	defer restarted.Close()
	tsRe := httptest.NewServer(restarted)
	defer tsRe.Close()
	replayed := fetchMetrics(t, tsRe.URL)

	// The acked-but-unflushed suffix: the torn batch (≤ maxBatch
	// records) plus the handful of async events queued when the disk
	// died. Everything else must match the golden state exactly.
	const slack = maxBatch + 4

	// Verdict cache: a subset of the reference, missing at most the
	// suffix, and every surviving entry equal to the reference verdict.
	refKeys := make(map[string]bool)
	for _, k := range ref.CacheKeys() {
		refKeys[k] = true
	}
	missing := 0
	for seed := int64(0); seed < int64(done); seed++ {
		key := ringsimKey(seed)
		if !refKeys[key] {
			t.Fatalf("reference run lacks key for seed %d", seed)
		}
		got, ok := restarted.cache.Get(key)
		if !ok {
			missing++
			continue
		}
		want, _ := ref.cache.Get(key)
		g, w := got.(RingsimResponse), want.(RingsimResponse)
		if g.Runs != w.Runs || g.Converged != w.Converged ||
			g.MeanSteps != w.MeanSteps || g.MaxSteps != w.MaxSteps || g.Protocol != w.Protocol {
			t.Fatalf("seed %d: replayed verdict %+v diverges from reference %+v", seed, g, w)
		}
	}
	if missing > slack {
		t.Fatalf("%d verdicts missing after replay; the unflushed suffix must be ≤ %d", missing, slack)
	}
	if extra := len(restarted.CacheKeys()); extra > done {
		t.Fatalf("replay invented %d cache entries for %d requests", extra, done)
	}

	// Counters: journal-lifetime, equal to the golden run minus the
	// lost suffix — never more, never behind by more than the suffix.
	counterDiff := func(name string, golden, replayed int64) {
		t.Helper()
		if replayed > golden || golden-replayed > slack {
			t.Fatalf("%s: replayed %d vs golden %d (allowed suffix %d)", name, replayed, golden, slack)
		}
	}
	counterDiff("requests.ringsim", golden.Requests[kindRingsim], replayed.Requests[kindRingsim])
	counterDiff("responses.ok", golden.Responses.OK, replayed.Responses.OK)
	counterDiff("latency.count", golden.Latency[kindRingsim].Count, replayed.Latency[kindRingsim].Count)
	if replayed.Responses.Internal != 0 || replayed.Responses.BadRequest != 0 {
		t.Fatalf("replay manufactured error outcomes: %+v", replayed.Responses)
	}
	if replayed.Journal == nil || replayed.Journal.Replay.Corrupt == 0 {
		t.Fatalf("restart should have seen the torn tail: %+v", replayed.Journal)
	}
}

// TestServiceJournalMetricsGauges: the /metrics journal section carries
// the head, depth, batch-size percentiles, and commit counters.
func TestServiceJournalMetricsGauges(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ringsim: %d: %s", resp.StatusCode, body)
	}
	waitJournalIdle(t, svc)
	snap := fetchMetrics(t, ts.URL)
	j := snap.Journal
	if j == nil {
		t.Fatal("journaled server reported no journal metrics")
	}
	if j.LastSeq == 0 || j.Records == 0 || j.Commits == 0 {
		t.Fatalf("journal counters empty: %+v", j)
	}
	if j.Depth != 0 {
		t.Fatalf("journal_depth = %d after idle drain", j.Depth)
	}
	if j.BatchP50 < 1 || j.BatchP99 < j.BatchP50 {
		t.Fatalf("batch percentiles p50=%v p99=%v", j.BatchP50, j.BatchP99)
	}
}

// TestServiceJournalCountsLive: a journaled server counts a request and
// its outcome before the response returns, exactly like a journal-less
// one — /metrics needs no wait for the journal.
func TestServiceJournalCountsLive(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for i := int64(1); i <= 2; i++ { // a computed verdict, then a hit
		resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ringsim: %d: %s", resp.StatusCode, body)
		}
		snap := fetchMetrics(t, ts.URL)
		if snap.Requests[kindRingsim] != i || snap.Responses.OK != i {
			t.Fatalf("after request %d: requests.ringsim = %d, responses.ok = %d",
				i, snap.Requests[kindRingsim], snap.Responses.OK)
		}
		if got := snap.Latency[kindRingsim].Count; got != 1 {
			t.Fatalf("after request %d: latency count = %d, want 1 (computed checks only)", i, got)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/ringsim", map[string]any{"family": "nope", "procs": 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown family: %d: %s", resp.StatusCode, body)
	}
	if snap := fetchMetrics(t, ts.URL); snap.Responses.BadRequest != 1 {
		t.Fatalf("responses.bad_request = %d, want 1", snap.Responses.BadRequest)
	}
}

// TestServiceJournalCheckpointSnapshot: with both a cache snapshot file
// and a journal, the shutdown snapshot records the journal head as its
// checkpoint, and a restart resumes replay from it instead of seq 0 —
// the interval-snapshot race window is closed by the journal tail, not
// by snapshot timing.
func TestServiceJournalCheckpointSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	backend := journal.NewMemBackend(nil)
	mk := func() *Server {
		return New(Config{Workers: 2, QueueDepth: 16,
			CachePath: path, CacheSnapshotInterval: time.Hour,
			JournalBackend: backend})
	}
	svc := mk()
	ts := httptest.NewServer(svc)
	for seed := int64(0); seed < 2; seed++ {
		resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, body)
		}
	}
	ts.Close()
	svc.Close() // final snapshot carries the final checkpoint
	wantCkpt := svc.journal.j.LastSeq()
	if wantCkpt == 0 {
		t.Fatal("journal never advanced")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, ckpt, skipped := decodeCacheEntries(raw)
	if skipped != 0 || len(entries) != 2 {
		t.Fatalf("snapshot decode: %d entries, %d skipped", len(entries), skipped)
	}
	if ckpt != wantCkpt {
		t.Fatalf("snapshot checkpoint = %d, want %d", ckpt, wantCkpt)
	}

	svc2 := mk()
	defer svc2.Close()
	if got := svc2.persister.loadedCheckpoint.Load(); got != wantCkpt {
		t.Fatalf("restart loaded checkpoint %d, want %d", got, wantCkpt)
	}
	// The snapshot already materialized both entries; replay resumed
	// above the checkpoint, and both verdicts serve as hits.
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	for seed := int64(0); seed < 2; seed++ {
		resp, body := postJSON(t, ts2.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart seed %d: %d: %s", seed, resp.StatusCode, body)
		}
		var rr RingsimResponse
		mustUnmarshal(t, body, &rr)
		if !rr.Cached {
			t.Fatalf("seed %d recomputed after checkpointed restart: %s", seed, body)
		}
	}
}

// TestServiceSnapshotDuringReplayNeverOverclaims: a cache snapshot that
// fires while New is replaying the journal, or right after, never
// records a checkpoint above what its entries hold — every verdict
// journaled at or below the recorded checkpoint is in the file. A
// server restarted from any such snapshot plus the journal therefore
// serves every journaled verdict as a hit.
func TestServiceSnapshotDuringReplayNeverOverclaims(t *testing.T) {
	const verdicts = 4
	backend := journal.NewMemBackend(nil)
	svc := New(Config{Workers: 2, QueueDepth: 16, JournalBackend: backend})
	// Filler ahead of the verdicts makes replay last long enough for
	// millisecond snapshots to fire mid-fold.
	for i := 0; i < 20000; i++ {
		if err := svc.journal.j.AppendAsync(journal.KindRequest, []byte(`{"kind":"ringsim"}`)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(svc)
	for seed := int64(0); seed < verdicts; seed++ {
		if resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(seed)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, body)
		}
	}
	ts.Close()
	svc.Close()

	// seqOf maps each journaled verdict key to its sequence number.
	seqOf := make(map[string]uint64)
	for _, ev := range svc.journal.j.Events(1) {
		if ev.Kind == journal.KindVerdict {
			var pe persistedEntry
			mustUnmarshal(t, ev.Data, &pe)
			seqOf[pe.Key] = ev.Seq
		}
	}
	if len(seqOf) != verdicts {
		t.Fatalf("journal holds %d verdicts, want %d", len(seqOf), verdicts)
	}

	// Restart with a fresh snapshot file and millisecond snapshots, and
	// keep every distinct image the file passes through during and just
	// after New.
	path := filepath.Join(t.TempDir(), "cache.snap")
	var restarted *Server
	done := make(chan struct{})
	go func() {
		restarted = New(Config{Workers: 2, QueueDepth: 16, JournalBackend: backend,
			CachePath: path, CacheSnapshotInterval: time.Millisecond})
		close(done)
	}()
	var images [][]byte
	capture := func() {
		raw, err := os.ReadFile(path)
		if err == nil && (len(images) == 0 || !bytes.Equal(raw, images[len(images)-1])) {
			images = append(images, raw)
		}
	}
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		default:
			capture()
			time.Sleep(100 * time.Microsecond)
		}
	}
	for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
		capture()
		time.Sleep(time.Millisecond)
	}
	restarted.Close()
	if len(images) == 0 {
		t.Fatal("no snapshot landed")
	}

	for i, img := range images {
		entries, ckpt, skipped := decodeCacheEntries(img)
		if skipped != 0 {
			t.Fatalf("image %d: %d records skipped", i, skipped)
		}
		held := make(map[string]bool, len(entries))
		for _, e := range entries {
			held[e.Key] = true
		}
		for key, seq := range seqOf {
			if seq <= ckpt && !held[key] {
				t.Fatalf("image %d: checkpoint %d covers verdict seq %d, but the snapshot lacks it", i, ckpt, seq)
			}
		}
	}

	// Crash-restart from the earliest and the latest image: both serve
	// every journaled verdict from the cache.
	for _, img := range [][]byte{images[0], images[len(images)-1]} {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		again := New(Config{Workers: 2, QueueDepth: 16, JournalBackend: journal.NewMemBackend(mustBackendBytes(t, backend)),
			CachePath: path, CacheSnapshotInterval: time.Hour})
		ts := httptest.NewServer(again)
		for seed := int64(0); seed < verdicts; seed++ {
			resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(seed))
			var rr RingsimResponse
			mustUnmarshal(t, body, &rr)
			if resp.StatusCode != http.StatusOK || !rr.Cached {
				t.Fatalf("seed %d not served from cache after restart: %d %s", seed, resp.StatusCode, body)
			}
		}
		ts.Close()
		again.Close()
	}
}

func mustBackendBytes(t *testing.T, b *journal.MemBackend) []byte {
	t.Helper()
	raw, err := b.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
