package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestJournalRangeQueryEndpoint: GET /v1/journal serves the decoded
// event history with inclusive bounds, rejects malformed ranges with
// 400s naming the parameter, and 404s on a journal-less server.
func TestJournalRangeQueryEndpoint(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for seed := int64(0); seed < 2; seed++ {
		resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, body)
		}
	}
	waitJournalIdle(t, svc)
	last := svc.JournalLastSeq()
	if last < 4 {
		t.Fatalf("expected at least 4 events (2 requests, 2 outcomes, 2 verdicts), got %d", last)
	}

	// Whole history with defaulted bounds.
	resp, body := getJSON(t, ts.URL+"/v1/journal")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/journal: %d: %s", resp.StatusCode, body)
	}
	var whole JournalRangeResponse
	mustUnmarshal(t, body, &whole)
	if whole.From != 1 || whole.To != last || whole.LastSeq != last {
		t.Fatalf("bounds from=%d to=%d last=%d, journal head %d", whole.From, whole.To, whole.LastSeq, last)
	}
	if uint64(len(whole.Events)) != last {
		t.Fatalf("whole history returned %d events, head is %d", len(whole.Events), last)
	}
	sawVerdict := false
	for i, ev := range whole.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Kind == string(journal.KindVerdict) {
			var pe persistedEntry
			if err := json.Unmarshal(ev.Data, &pe); err != nil || pe.Key == "" {
				t.Fatalf("verdict event %d data did not decode: %s (%v)", ev.Seq, ev.Data, err)
			}
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatal("no verdict event in the range response")
	}

	// An explicit inclusive sub-range.
	resp, body = getJSON(t, ts.URL+"/v1/journal?from=2&to=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sub-range: %d: %s", resp.StatusCode, body)
	}
	var sub JournalRangeResponse
	mustUnmarshal(t, body, &sub)
	if len(sub.Events) != 2 || sub.Events[0].Seq != 2 || sub.Events[1].Seq != 3 {
		t.Fatalf("sub-range [2,3] returned %+v", sub.Events)
	}

	// Malformed ranges are 400s that name what was wrong.
	for _, tc := range []struct{ query, wantSub string }{
		{"?from=abc", "from"},
		{"?to=zzz", "to"},
		{"?from=5&to=3", "from=5 > to=3"},
		{"?from=0", "start at 1"},
	} {
		resp, body := getJSON(t, ts.URL+"/v1/journal"+tc.query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", tc.query, resp.StatusCode, body)
		}
		if !containsStr(body, tc.wantSub) {
			t.Fatalf("%s: error %s does not name %q", tc.query, body, tc.wantSub)
		}
	}

	// The endpoint shares the request-id middleware like everything else.
	httpResp, err := http.Get(ts.URL + "/v1/journal")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id on a journal range response")
	}

	// A journal-less server answers 404, not a panic or an empty page.
	plain := New(Config{Workers: 1, QueueDepth: 4})
	defer plain.Close()
	tsPlain := httptest.NewServer(plain)
	defer tsPlain.Close()
	resp, body = getJSON(t, tsPlain.URL+"/v1/journal")
	if resp.StatusCode != http.StatusNotFound || !containsStr(body, "without a journal") {
		t.Fatalf("journal-less: %d: %s", resp.StatusCode, body)
	}
}

// TestJournalRangeQueryPaging: a range wider than one page truncates at
// journalQueryMaxEvents and hands back a resume cursor that walks the
// rest.
func TestJournalRangeQueryPaging(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	total := journalQueryMaxEvents + 40
	for i := 0; i < total; i++ {
		if err := svc.journal.j.AppendAsync(journal.KindRequest,
			[]byte(fmt.Sprintf(`{"kind":"page-%d"}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	waitJournalIdle(t, svc)

	resp, body := getJSON(t, ts.URL+"/v1/journal")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page 1: %d: %s", resp.StatusCode, body)
	}
	var page JournalRangeResponse
	mustUnmarshal(t, body, &page)
	if !page.Truncated || len(page.Events) != journalQueryMaxEvents {
		t.Fatalf("page 1: truncated=%v events=%d", page.Truncated, len(page.Events))
	}
	if page.NextFrom != journalQueryMaxEvents+1 {
		t.Fatalf("page 1 next_from = %d", page.NextFrom)
	}
	resp, body = getJSON(t, fmt.Sprintf("%s/v1/journal?from=%d", ts.URL, page.NextFrom))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page 2: %d: %s", resp.StatusCode, body)
	}
	var rest JournalRangeResponse
	mustUnmarshal(t, body, &rest)
	if rest.Truncated || len(rest.Events) != total-journalQueryMaxEvents {
		t.Fatalf("page 2: truncated=%v events=%d want %d",
			rest.Truncated, len(rest.Events), total-journalQueryMaxEvents)
	}
}

// TestVerdictTimeTravelMatchesReferenceReplay: "the verdict cache as of
// sequence N" computed by VerdictKeysAsOf equals the cache a fresh
// server reconstructs by replaying exactly the journal prefix up to N —
// the time-travel view is the reference replay, not an approximation.
func TestVerdictTimeTravelMatchesReferenceReplay(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 16,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Sequential requests with a barrier after each, so lastSeq[i] is a
	// cut that includes exactly the first i+1 verdicts.
	var cuts []uint64
	for seed := int64(0); seed < 3; seed++ {
		resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, body)
		}
		waitJournalIdle(t, svc)
		cuts = append(cuts, svc.JournalLastSeq())
	}

	asOf := cuts[1]
	keys, err := svc.VerdictKeysAsOf(asOf)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(keys))
	for _, k := range keys {
		got[k] = true
	}
	if !got[ringsimKey(0)] || !got[ringsimKey(1)] || got[ringsimKey(2)] {
		t.Fatalf("as-of %d keys %v: want seeds 0,1 and not 2", asOf, keys)
	}

	// Reference replay: a fresh server on exactly the prefix up to asOf.
	var prefix bytes.Buffer
	for _, ev := range svc.journal.j.Events(0) {
		if ev.Seq > asOf {
			break
		}
		prefix.Write(journal.EncodeEvent(ev))
	}
	ref := New(Config{Workers: 1, QueueDepth: 16,
		JournalBackend: journal.NewMemBackend(prefix.Bytes())})
	defer ref.Close()
	refKeys := ref.CacheKeys()
	if len(refKeys) != len(keys) {
		t.Fatalf("reference replay has %d verdicts, time travel %d", len(refKeys), len(keys))
	}
	for _, k := range refKeys {
		if !got[k] {
			t.Fatalf("reference replay key %s missing from the time-travel view", k)
		}
	}

	// Retention retires history: once the prefix is compacted away, the
	// same question answers ErrCompacted instead of a partial lie.
	svc.CoverJournalTo(svc.JournalLastSeq())
	if st := svc.CompactJournal(); st.HorizonSeq == 0 {
		t.Fatalf("compaction did not advance the horizon: %+v", st)
	}
	if _, err := svc.VerdictKeysAsOf(asOf); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("time travel below the horizon: err = %v, want ErrCompacted", err)
	}
}

// TestCompactionPreservesServingStateAcrossRestart: snapshot-covered
// compaction drops journal events without losing serving state — a
// restart on the compacted journal plus the snapshot serves every prior
// verdict as a cache hit, and sequence numbering continues above the
// old head instead of resetting.
func TestCompactionPreservesServingStateAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	backend := journal.NewMemBackend(nil)
	mk := func() *Server {
		return New(Config{Workers: 2, QueueDepth: 16,
			CachePath: path, CacheSnapshotInterval: time.Hour,
			JournalBackend: backend})
	}
	svc := mk()
	ts := httptest.NewServer(svc)
	for seed := int64(0); seed < 3; seed++ {
		resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, body)
		}
	}
	waitJournalIdle(t, svc)
	ckpt, ok := svc.persister.snapshot()
	if !ok || ckpt == 0 {
		t.Fatalf("snapshot: ckpt=%d ok=%v", ckpt, ok)
	}
	svc.CoverJournalTo(ckpt)
	st := svc.CompactJournal()
	if st.Compactions != 1 || st.DroppedEvents == 0 || st.HorizonSeq == 0 {
		t.Fatalf("compaction stats %+v", st)
	}
	lastSeq := svc.JournalLastSeq()
	horizon := svc.JournalHorizon()
	ts.Close()
	svc.Close()

	svc2 := mk()
	defer svc2.Close()
	if got := svc2.JournalHorizon(); got != horizon {
		t.Fatalf("restart horizon %d, want %d (inferred from the compacted prefix)", got, horizon)
	}
	if got := svc2.JournalLastSeq(); got != lastSeq {
		t.Fatalf("restart head %d, want %d — compaction must never reset sequence numbering", got, lastSeq)
	}
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	for seed := int64(0); seed < 3; seed++ {
		resp, body := postJSON(t, ts2.URL+"/v1/ringsim", ringsimBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart seed %d: %d: %s", seed, resp.StatusCode, body)
		}
		var rr RingsimResponse
		mustUnmarshal(t, body, &rr)
		if !rr.Cached {
			t.Fatalf("seed %d recomputed after compacted restart: %s", seed, body)
		}
	}
	// New history lands above the old head.
	resp, body := postJSON(t, ts2.URL+"/v1/ringsim", ringsimBody(99))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new verdict: %d: %s", resp.StatusCode, body)
	}
	waitJournalIdle(t, svc2)
	if got := svc2.JournalLastSeq(); got <= lastSeq {
		t.Fatalf("new events at seq %d, want > %d", got, lastSeq)
	}
}

// TestRetentionMetricsSurface: with a disk budget, /metrics carries the
// retention section (including journal_shed_total); without one the
// section is absent rather than a block of zeros.
func TestRetentionMetricsSurface(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	svc := New(Config{Workers: 1, QueueDepth: 4,
		CachePath: path, CacheSnapshotInterval: time.Hour,
		JournalBackend:  journal.NewMemBackend(nil),
		JournalMaxBytes: 1 << 20, JournalCheckpointInterval: time.Hour})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/ringsim", ringsimBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ringsim: %d: %s", resp.StatusCode, body)
	}
	waitJournalIdle(t, svc)
	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !containsStr(body, `"journal_shed_total"`) {
		t.Fatalf("metrics body lacks journal_shed_total: %s", body)
	}
	var snap MetricsSnapshot
	mustUnmarshal(t, body, &snap)
	ret := snap.Journal.Retention
	if ret == nil || ret.MaxBytes != 1<<20 || ret.UsageBytes == 0 || ret.Level != "none" {
		t.Fatalf("retention section %+v", ret)
	}

	plain := New(Config{Workers: 1, QueueDepth: 4,
		JournalBackend: journal.NewMemBackend(nil)})
	defer plain.Close()
	tsPlain := httptest.NewServer(plain)
	defer tsPlain.Close()
	snapPlain := fetchMetrics(t, tsPlain.URL)
	if snapPlain.Journal == nil || snapPlain.Journal.Retention != nil {
		t.Fatalf("budget-less server grew a retention section: %+v", snapPlain.Journal)
	}
}
