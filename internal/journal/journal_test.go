package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster/store"
)

func mustAppend(t *testing.T, j *Journal, kind string, data string) uint64 {
	t.Helper()
	seq, err := j.Append(kind, []byte(data))
	if err != nil {
		t.Fatalf("Append(%s): %v", kind, err)
	}
	return seq
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	b := NewMemBackend(nil)
	j, err := Open(b, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		seq := mustAppend(t, j, KindRequest, fmt.Sprintf(`{"i":%d}`, i))
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if got := j.LastSeq(); got != n {
		t.Fatalf("LastSeq = %d, want %d", got, n)
	}
	j.Close()

	j2, err := Open(b, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if st := j2.ReplayStats(); st.Events != n || st.Corrupt != 0 || st.Stale != 0 {
		t.Fatalf("replay stats = %+v, want %d clean events", st, n)
	}
	evs := j2.Events(1)
	if len(evs) != n {
		t.Fatalf("replayed %d events, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Kind != KindRequest {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// Replayed numbering continues: the next append gets n+1.
	if seq := mustAppend(t, j2, KindOutcome, `{}`); seq != n+1 {
		t.Fatalf("post-replay seq = %d, want %d", seq, n+1)
	}
}

func TestJournalConcurrentAppendsGroupCommit(t *testing.T) {
	b := NewMemBackend(nil)
	j, err := Open(b, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	seqs := make(chan uint64, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := j.Append(KindVerdict, []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i)))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				seqs <- seq
			}
		}(w)
	}
	wg.Wait()
	close(seqs)
	seen := make(map[uint64]bool)
	for s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate seq %d", s)
		}
		seen[s] = true
	}
	if len(seen) != writers*each {
		t.Fatalf("got %d unique seqs, want %d", len(seen), writers*each)
	}
	records, commits, errsN := j.Counters()
	if records != writers*each || errsN != 0 {
		t.Fatalf("records=%d errs=%d, want %d/0", records, errsN, writers*each)
	}
	if commits > records {
		t.Fatalf("commits=%d exceeds records=%d", commits, records)
	}
	j.Close()
	evs, stats := DecodeEvents(mustReadAll(t, b))
	if stats.Events != writers*each || stats.Corrupt != 0 {
		t.Fatalf("decode stats %+v", stats)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq regression at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func mustReadAll(t *testing.T, b Backend) []byte {
	t.Helper()
	raw, err := b.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return raw
}

func TestJournalReplayResyncsPastDamage(t *testing.T) {
	var raw []byte
	raw = append(raw, EncodeEvent(Event{Seq: 1, Kind: KindRequest, Data: json.RawMessage(`{"a":1}`)})...)
	raw = append(raw, EncodeEvent(Event{Seq: 2, Kind: KindVerdict, Data: json.RawMessage(`{"b":2}`)})...)
	raw = append(raw, []byte("garbage in the middle")...)
	raw = append(raw, EncodeEvent(Event{Seq: 5, Kind: KindOutcome})...)
	raw = append(raw, EncodeEvent(Event{Seq: 3, Kind: KindRequest})...) // stale: regresses
	good := EncodeEvent(Event{Seq: 9, Kind: KindCampaign})
	raw = append(raw, good...)
	raw = append(raw, good[:len(good)-7]...) // torn tail

	evs, stats := DecodeEvents(raw)
	wantSeqs := []uint64{1, 2, 5, 9}
	if len(evs) != len(wantSeqs) {
		t.Fatalf("got %d events (%+v), want seqs %v; stats %+v", len(evs), evs, wantSeqs, stats)
	}
	for i, want := range wantSeqs {
		if evs[i].Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	if stats.Stale != 1 {
		t.Fatalf("stale = %d, want 1; stats %+v", stats.Stale, stats)
	}
	if stats.Corrupt < 2 { // the garbage region and the torn tail
		t.Fatalf("corrupt = %d, want >= 2; stats %+v", stats.Corrupt, stats)
	}

	// A journal opened on the damaged bytes continues past the highest
	// surviving seq.
	j, err := Open(NewMemBackend(raw), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	if seq := mustAppend(t, j, KindRequest, `{}`); seq != 10 {
		t.Fatalf("post-damage seq = %d, want 10", seq)
	}
}

// failBackend errors every Append whose 1-based index is in failAt.
type failBackend struct {
	mem    MemBackend
	mu     sync.Mutex
	n      int
	failAt map[int]bool
}

func (fb *failBackend) ReadAll() ([]byte, error) { return fb.mem.ReadAll() }

func (fb *failBackend) Append(b []byte) error {
	fb.mu.Lock()
	fb.n++
	fail := fb.failAt[fb.n]
	fb.mu.Unlock()
	if fail {
		return errors.New("injected append failure")
	}
	return fb.mem.Append(b)
}

func TestJournalFailedCommitConsumesSeqs(t *testing.T) {
	fb := &failBackend{failAt: map[int]bool{2: true}}
	j, err := Open(fb, Options{MaxBatch: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if seq := mustAppend(t, j, KindRequest, `{}`); seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	if _, err := j.Append(KindRequest, []byte(`{}`)); err == nil {
		t.Fatal("append over failing backend succeeded")
	}
	// The failed batch's number is burned: a torn prefix of it on disk
	// can never collide with a later acked record.
	if seq := mustAppend(t, j, KindRequest, `{}`); seq != 3 {
		t.Fatalf("post-failure seq = %d, want 3 (seq 2 consumed by failed commit)", seq)
	}
	_, _, appendErrors := j.Counters()
	if appendErrors != 1 {
		t.Fatalf("appendErrors = %d, want 1", appendErrors)
	}
	j.Close()
	evs, _ := DecodeEvents(mustReadAll(t, fb))
	wantSeqs := []uint64{1, 3}
	if len(evs) != 2 || evs[0].Seq != wantSeqs[0] || evs[1].Seq != wantSeqs[1] {
		t.Fatalf("durable events %+v, want seqs %v", evs, wantSeqs)
	}
}

func TestJournalCloseDrainsPending(t *testing.T) {
	b := NewMemBackend(nil)
	j, err := Open(b, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := j.AppendAsync(KindOutcome, []byte(`{}`)); err != nil {
			t.Fatalf("AppendAsync: %v", err)
		}
	}
	j.Close()
	if d := j.Depth(); d != 0 {
		t.Fatalf("depth after close = %d, want 0", d)
	}
	evs, stats := DecodeEvents(mustReadAll(t, b))
	if len(evs) != n || stats.Corrupt != 0 {
		t.Fatalf("drained %d events (stats %+v), want %d", len(evs), stats, n)
	}
	if _, err := j.Append(KindRequest, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	j.Close() // idempotent
}

func TestJournalRejectsOversizedEvent(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	if _, err := j.Append(KindRequest, make([]byte, MaxEventBytes+1)); !errors.Is(err, ErrEventTooLarge) {
		t.Fatalf("oversized append: %v, want ErrEventTooLarge", err)
	}
}

func TestFileBackendSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.snp")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	j, err := Open(fb, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, j, KindVerdict, `{"v":1}`)
	mustAppend(t, j, KindVerdict, `{"v":2}`)
	j.Close()
	if err := fb.Close(); err != nil {
		t.Fatalf("backend close: %v", err)
	}

	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fb2.Close()
	j2, err := Open(fb2, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j2.Close()
	if got := j2.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after file reopen = %d, want 2", got)
	}
}

func TestTornBackendModelsHardKill(t *testing.T) {
	tb := NewTornBackend(3, 2) // tear the 3rd append, keep half its bytes
	j, err := Open(tb, Options{MaxBatch: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, j, KindVerdict, `{"v":1}`)
	mustAppend(t, j, KindVerdict, `{"v":2}`)
	// The torn append is acked — the lie a crash makes possible.
	mustAppend(t, j, KindVerdict, `{"v":3}`)
	if !tb.Torn() {
		t.Fatal("backend not torn after third append")
	}
	if _, err := j.Append(KindVerdict, []byte(`{"v":4}`)); err == nil {
		t.Fatal("append to dead backend succeeded")
	}
	j.Close()

	// Restart on the surviving bytes: the acked-but-unflushed suffix is
	// exactly the torn batch; everything before it replays cleanly.
	j2, err := Open(NewMemBackend(tb.Bytes()), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if got := j2.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after torn replay = %d, want 2", got)
	}
	if st := j2.ReplayStats(); st.Events != 2 || st.Corrupt == 0 {
		t.Fatalf("replay stats %+v, want 2 events and a corrupt tail", st)
	}
}

func TestBatchHistogramPercentiles(t *testing.T) {
	var h batchHistogram
	for i := 0; i < 90; i++ {
		h.observe(1)
	}
	for i := 0; i < 10; i++ {
		h.observe(64)
	}
	if p50 := h.percentile(0.50); p50 != 1 {
		t.Fatalf("p50 = %v, want 1", p50)
	}
	if p99 := h.percentile(0.99); p99 != 64 {
		t.Fatalf("p99 = %v, want 64", p99)
	}
	if p := h.percentile(0.99); p != 64 {
		t.Fatalf("repeat p99 = %v", p)
	}
	var empty batchHistogram
	if p := empty.percentile(0.5); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
}

func TestEncodeEventFramesOnStoreRecord(t *testing.T) {
	ev := Event{Seq: 42, Kind: KindCampaign, Data: json.RawMessage(`{"x":1}`)}
	raw := EncodeEvent(ev)
	gen, payload, rest, err := store.DecodeRecord(raw)
	if err != nil || gen != 42 || len(rest) != 0 {
		t.Fatalf("DecodeRecord: gen=%d rest=%d err=%v", gen, len(rest), err)
	}
	var body eventBody
	if err := json.Unmarshal(payload, &body); err != nil || body.Kind != KindCampaign {
		t.Fatalf("payload %s: %v", payload, err)
	}
}

// TestJournalWindowBounds pins Window's bounds on a gapped history that
// starts above 1: from below the first event, inside a sequence gap and
// at the head, with n capping the copy. A window is a copy, so a later
// compaction does not reach it.
func TestJournalWindowBounds(t *testing.T) {
	var raw []byte
	for _, seq := range []uint64{4, 5, 6, 10, 11, 12} {
		raw = append(raw, EncodeEvent(Event{Seq: seq, Kind: KindVerdict, Data: json.RawMessage(fmt.Sprintf(`{"s":%d}`, seq))})...)
	}
	j, err := Open(NewMemBackend(raw), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	seqs := func(evs []Event) []uint64 {
		out := make([]uint64, len(evs))
		for i, ev := range evs {
			out[i] = ev.Seq
		}
		return out
	}
	for _, tc := range []struct {
		from uint64
		n    int
		want []uint64
	}{
		{0, 100, []uint64{4, 5, 6, 10, 11, 12}}, // below the first event
		{2, 2, []uint64{4, 5}},                  // n caps the copy
		{7, 100, []uint64{10, 11, 12}},          // inside the gap 7..9
		{9, 1, []uint64{10}},
		{12, 100, []uint64{12}}, // the head
		{13, 100, []uint64{}},   // past the head
		{5, 0, []uint64{}},
	} {
		if got := seqs(j.Window(tc.from, tc.n)); !slices.Equal(got, tc.want) {
			t.Errorf("Window(%d, %d) = %v, want %v", tc.from, tc.n, got, tc.want)
		}
	}

	w := j.Window(0, 3)
	j.SetCovered(6)
	if st := j.Compact(); st.HorizonSeq != 6 {
		t.Fatalf("horizon after compaction = %d, want 6", st.HorizonSeq)
	}
	if got := seqs(w); !slices.Equal(got, []uint64{4, 5, 6}) || string(w[0].Data) != `{"s":4}` {
		t.Fatalf("window taken before compaction = %v (%s), want 4,5,6 intact", got, w[0].Data)
	}
	if got := seqs(j.Window(0, 100)); !slices.Equal(got, []uint64{10, 11, 12}) {
		t.Fatalf("Window(0, 100) after compaction = %v, want 10,11,12", got)
	}
}
