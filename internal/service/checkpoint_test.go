package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/journal"
)

// padVerdict records one synthetic verdict of about pad bytes under key
// through the live recorder: cache put, then a durable journal append.
func padVerdict(s *Server, key string, pad, i int) {
	s.recordVerdict(kindRingsim, key, RingsimResponse{Protocol: strings.Repeat("p", pad), Runs: i})
}

// checkpointRuns returns the complete checkpoints in evs, oldest first,
// each as its chunk events.
func checkpointRuns(t *testing.T, evs []journal.Event) [][]journal.Event {
	t.Helper()
	var runs [][]journal.Event
	var run []journal.Event
	for _, ev := range evs {
		if ev.Kind != journal.KindCheckpoint {
			run = nil
			continue
		}
		var c checkpointChunk
		mustUnmarshal(t, ev.Data, &c)
		if c.Part != len(run) {
			run = nil
			continue
		}
		run = append(run, ev)
		if len(run) == c.Parts {
			runs = append(runs, run)
			run = nil
		}
	}
	return runs
}

// hasVerdictEvent reports whether evs still hold a verdict event for key.
func hasVerdictEvent(t *testing.T, evs []journal.Event, key string) bool {
	t.Helper()
	for _, ev := range evs {
		if ev.Kind != journal.KindVerdict {
			continue
		}
		var pe persistedEntry
		mustUnmarshal(t, ev.Data, &pe)
		if pe.Key == key {
			return true
		}
	}
	return false
}

// TestCheckpointBoundsJournalByCache is the tentpole scenario: a server
// journaling without a snapshot file, fed ten times its cache capacity
// of fresh verdicts, keeps its journal within a few checkpoints — bytes
// and events — and a restart on that compacted journal serves every
// verdict the cache held, hot entries whose verdict events were
// compacted away included, and continues the sequence numbering. The
// crash path, without the close checkpoint, is
// TestCheckpointCrashBetweenChunksReplaysClean's.
func TestCheckpointBoundsJournalByCache(t *testing.T) {
	const capacity = 256
	const pad = 6000 // a full cache checkpoints at ~1.5 MB, over the floor
	backend := journal.NewMemBackend(nil)
	cfg := Config{Workers: 2, QueueDepth: 16, CacheEntries: capacity, JournalBackend: backend}
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	hot := func(srv *httptest.Server, wantCached bool) {
		t.Helper()
		for seed := int64(0); seed < 3; seed++ {
			resp, body := postJSON(t, srv.URL+"/v1/ringsim", ringsimBody(seed))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, body)
			}
			var rr RingsimResponse
			mustUnmarshal(t, body, &rr)
			if wantCached && !rr.Cached {
				t.Fatalf("seed %d recomputed: %s", seed, body)
			}
		}
	}
	hot(ts, false)

	var peakBytes, peakEvents int
	for i := 0; i < 10*capacity; i++ {
		padVerdict(svc, fmt.Sprintf("fresh-%05d", i), pad, i)
		if i%32 == 31 {
			hot(ts, true) // hits keep the ringsim verdicts recent
			peakBytes = max(peakBytes, backend.Len())
			peakEvents = max(peakEvents, len(svc.journal.j.Events(0)))
		}
	}
	waitJournalIdle(t, svc)
	evs := svc.journal.j.Events(0)
	runs := checkpointRuns(t, evs)
	if len(runs) == 0 {
		t.Fatal("no complete checkpoint in the journal")
	}
	ckpt := 0
	for _, ev := range runs[len(runs)-1] {
		ckpt += len(journal.EncodeEvent(ev))
	}
	if peakBytes > 6*ckpt {
		t.Fatalf("journal peaked at %d bytes, more than 6 checkpoints of %d", peakBytes, ckpt)
	}
	if peakEvents > 6*capacity {
		t.Fatalf("journal peaked at %d events, more than 6 cache capacities", peakEvents)
	}
	for seed := int64(0); seed < 3; seed++ {
		if hasVerdictEvent(t, evs, ringsimKey(seed)) {
			t.Fatalf("seed %d's verdict event survived compaction; the test does not reach the checkpoint path", seed)
		}
	}
	keys := svc.CacheKeys()
	last := svc.JournalLastSeq()
	ts.Close()
	svc.Close()

	svc2 := New(cfg)
	defer svc2.Close()
	// The close checkpoint keeps what hits did since the last one: the
	// same verdicts, in the same recency order.
	if got := svc2.CacheKeys(); strings.Join(got, ",") != strings.Join(keys, ",") {
		t.Fatalf("replayed cache holds %d keys, the live cache held %d (or in another order)", len(got), len(keys))
	}
	if svc2.JournalLastSeq() <= last {
		t.Fatalf("restart head %d, want above %d (the close checkpoint)", svc2.JournalLastSeq(), last)
	}
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	hot(ts2, true)
	padVerdict(svc2, "after-restart", pad, 0)
	if got := svc2.JournalLastSeq(); got <= last {
		t.Fatalf("new events at seq %d, want > %d", got, last)
	}
}

// TestCheckpointCrashBetweenChunksReplaysClean: a crash that tears the
// newest checkpoint — its first chunk durable, the second half written —
// before its coverage is published restarts from the checkpoint before
// it plus the verdicts after, and loses no verdict acked before the torn
// one.
func TestCheckpointCrashBetweenChunksReplaysClean(t *testing.T) {
	const capacity = 64
	const pad = 8000 // ~31 entries per chunk: a full cache is 3 chunks
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: capacity,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	i := 0
	for ; len(checkpointRuns(t, svc.journal.j.Events(0))) < 2; i++ {
		if i > 2000 {
			t.Fatal("no second checkpoint after 2000 verdicts")
		}
		padVerdict(svc, fmt.Sprintf("v%05d", i), pad, i)
	}
	waitJournalIdle(t, svc)
	evs := svc.journal.j.Events(0)
	runs := checkpointRuns(t, evs)
	torn := runs[len(runs)-1]
	if len(torn) < 2 {
		t.Fatalf("newest checkpoint has %d chunks, need 2 to tear between them", len(torn))
	}

	// The crash image: every frame before the torn checkpoint's second
	// chunk, then half of that chunk.
	var image []byte
	var acked []string // verdict keys in the image, in order
	for _, ev := range evs {
		if ev.Seq == torn[1].Seq {
			frame := journal.EncodeEvent(ev)
			image = append(image, frame[:len(frame)/2]...)
			break
		}
		image = append(image, journal.EncodeEvent(ev)...)
		if ev.Kind == journal.KindVerdict {
			var pe persistedEntry
			mustUnmarshal(t, ev.Data, &pe)
			acked = append(acked, pe.Key)
		}
	}
	want := acked[len(acked)-capacity:]

	re := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: capacity,
		JournalBackend: journal.NewMemBackend(image)})
	defer re.Close()
	if st := re.journal.j.ReplayStats(); st.Corrupt != 1 || st.Stale != 0 {
		t.Fatalf("replay of the torn image: %+v, want exactly the torn frame skipped", st)
	}
	if got := re.CacheKeys(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("restart holds %d keys %v..., want the %d newest acked verdicts", len(got), got[:min(3, len(got))], len(want))
	}
	if re.JournalLastSeq() != torn[0].Seq {
		t.Fatalf("restart head %d, want the surviving chunk's %d", re.JournalLastSeq(), torn[0].Seq)
	}
}

// TestCheckpointTimeTravelSeesCompactedKeys: once compaction has dropped
// a hot verdict's event, "the keys as of the head" still includes it —
// only the checkpoint holds it now — while a sequence number below the
// first surviving checkpoint answers ErrCompacted rather than a partial
// list.
func TestCheckpointTimeTravelSeesCompactedKeys(t *testing.T) {
	const capacity = 64
	const pad = 8000
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: capacity,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	padVerdict(svc, "hot", pad, 0)
	for i := 0; svc.JournalHorizon() == 0 || hasVerdictEvent(t, svc.journal.j.Events(0), "hot"); i++ {
		if i > 2000 {
			t.Fatal("the hot verdict's event was never compacted")
		}
		padVerdict(svc, fmt.Sprintf("v%05d", i), pad, i)
		svc.cache.Get("hot")
	}
	waitJournalIdle(t, svc)
	head := svc.JournalLastSeq()
	keys, err := svc.VerdictKeysAsOf(head)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("key %s listed twice", k)
		}
		seen[k] = true
	}
	if !seen["hot"] {
		t.Fatalf("as of head %d the keys miss the checkpointed hot verdict", head)
	}
	for _, k := range svc.CacheKeys() {
		if !seen[k] {
			t.Fatalf("cached key %s missing from the time-travel view", k)
		}
	}
	if _, err := svc.VerdictKeysAsOf(svc.JournalHorizon()); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("as of the horizon: err = %v, want ErrCompacted", err)
	}
}

// TestCheckpointChunksNeverShipInSuffix: anti-entropy suffix pulls ship
// verdict events only; checkpoint chunks advance the cursor without
// shipping.
func TestCheckpointChunksNeverShipInSuffix(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 64,
		JournalBackend: journal.NewMemBackend(nil)})
	defer svc.Close()
	for i := 0; len(checkpointRuns(t, svc.journal.j.Events(0))) < 2; i++ {
		if i > 2000 {
			t.Fatal("no second checkpoint after 2000 verdicts")
		}
		padVerdict(svc, fmt.Sprintf("v%05d", i), 8000, i)
	}
	waitJournalIdle(t, svc)
	from := svc.JournalHorizon()
	var verdicts int
	for _, ev := range svc.journal.j.Events(from + 1) {
		if ev.Kind == journal.KindVerdict {
			verdicts++
		}
	}
	b, next, n, hole := svc.EncodeJournalSuffix(from, 0)
	if hole || next != svc.JournalLastSeq() || n != verdicts {
		t.Fatalf("suffix from %d: next %d (head %d), %d shipped of %d verdicts, hole %v",
			from, next, svc.JournalLastSeq(), n, verdicts, hole)
	}
	evs, st := journal.DecodeEvents(b)
	if st.Corrupt != 0 || len(evs) != n {
		t.Fatalf("suffix decodes to %d events (%+v), want %d", len(evs), st, n)
	}
	for _, ev := range evs {
		if ev.Kind != journal.KindVerdict {
			t.Fatalf("suffix shipped a %s event", ev.Kind)
		}
	}
}

// TestCheckpointChunkCodec: the chunks of one checkpoint carry the
// entries in order under the persistedEntry codec, each chunk within the
// chunk bound, and an empty cache still checkpoints as one empty chunk.
func TestCheckpointChunkCodec(t *testing.T) {
	c := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 200}).cache
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%03d", i), RingsimResponse{Protocol: strings.Repeat("x", 3000), Runs: i})
	}
	chunks := encodeCheckpoint(42, c.Entries())
	if len(chunks) < 2 {
		t.Fatalf("%d chunks for ~600 KB of entries", len(chunks))
	}
	var got []string
	for i, raw := range chunks {
		if len(raw) > checkpointChunkBytes+64 {
			t.Fatalf("chunk %d is %d bytes", i, len(raw))
		}
		var ch checkpointChunk
		if err := json.Unmarshal(raw, &ch); err != nil {
			t.Fatal(err)
		}
		if ch.Head != 42 || ch.Part != i || ch.Parts != len(chunks) {
			t.Fatalf("chunk %d header %d/%d/%d", i, ch.Head, ch.Part, ch.Parts)
		}
		for _, pe := range ch.Entries {
			v, err := decodeCachedValue(pe.Kind, pe.Value)
			if err != nil || v.(RingsimResponse).Runs != len(got) {
				t.Fatalf("entry %s: %v %v", pe.Key, v, err)
			}
			got = append(got, pe.Key)
		}
	}
	if len(got) != 200 || got[0] != "k000" || got[199] != "k199" {
		t.Fatalf("checkpoint holds %d keys from %s", len(got), got[0])
	}
	empty := encodeCheckpoint(7, nil)
	var ch checkpointChunk
	if len(empty) != 1 || json.Unmarshal(empty[0], &ch) != nil || ch.Parts != 1 || len(ch.Entries) != 0 {
		t.Fatalf("empty checkpoint: %q", empty)
	}
}
