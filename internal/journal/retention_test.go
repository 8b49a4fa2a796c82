package journal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fillJournal appends n small events and returns the last seq.
func fillJournal(t *testing.T, j *Journal, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		last = mustAppend(t, j, KindVerdict, fmt.Sprintf(`{"i":%d}`, i))
	}
	return last
}

func TestCompactionDropsCoveredPrefix(t *testing.T) {
	mem := NewMemBackend(nil)
	j, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillJournal(t, j, 10)
	before := mem.Len()

	j.SetCovered(6)
	st := j.Compact()
	if st.HorizonSeq != 6 || st.DroppedEvents != 6 || st.Compactions != 1 {
		t.Fatalf("retention after compact = %+v, want horizon 6, 6 dropped", st)
	}
	if evs := j.Events(0); len(evs) != 4 || evs[0].Seq != 7 {
		t.Fatalf("in-memory events after compact = %d starting at %d, want 4 from 7", len(evs), evs[0].Seq)
	}
	if mem.Len() >= before {
		t.Fatalf("backend did not shrink: %d -> %d", before, mem.Len())
	}
	if got := j.Usage(); got != int64(mem.Len()) {
		t.Fatalf("tracked usage %d != backend len %d", got, mem.Len())
	}

	// Appends continue the numbering on the compacted journal.
	if seq := mustAppend(t, j, KindVerdict, `{}`); seq != 11 {
		t.Fatalf("post-compaction append seq = %d, want 11", seq)
	}
	j.Close()

	// A restart on the compacted bytes recovers the horizon and resumes
	// the same numbering.
	re, err := Open(mem, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if st := re.ReplayStats(); st.Events != 5 || st.Corrupt != 0 || st.Stale != 0 {
		t.Fatalf("replay stats = %+v, want 5 clean events", st)
	}
	if re.LastSeq() != 11 || re.Horizon() != 6 {
		t.Fatalf("reopened last=%d horizon=%d, want 11/6", re.LastSeq(), re.Horizon())
	}
}

func TestCompactionKeepsNewestEvent(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	last := fillJournal(t, j, 5)
	// Coverage beyond the whole history still retains the newest event,
	// so a restart cannot reset the sequence numbering to zero.
	j.SetCovered(last + 100)
	st := j.Compact()
	if st.HorizonSeq != last-1 {
		t.Fatalf("horizon = %d, want %d (newest event retained)", st.HorizonSeq, last-1)
	}
	if evs := j.Events(0); len(evs) != 1 || evs[0].Seq != last {
		t.Fatalf("events after full-coverage compact = %+v, want only seq %d", evs, last)
	}
}

func TestFileBackendCompactionSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.snp")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	j, err := Open(fb, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillJournal(t, j, 20)
	j.SetCovered(15)
	st := j.Compact()
	if st.HorizonSeq != 15 || st.Compactions != 1 {
		t.Fatalf("retention = %+v, want horizon 15", st)
	}
	// The swap must leave the append handle usable: later events land in
	// the new file, not the unlinked old inode.
	if seq := mustAppend(t, j, KindVerdict, `{"after":"compact"}`); seq != 21 {
		t.Fatalf("post-swap seq = %d, want 21", seq)
	}
	j.Close()
	if err := fb.Close(); err != nil {
		t.Fatalf("backend close: %v", err)
	}

	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen file: %v", err)
	}
	defer fb2.Close()
	re, err := Open(fb2, Options{})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer re.Close()
	if st := re.ReplayStats(); st.Events != 6 || st.Corrupt != 0 {
		t.Fatalf("replay stats = %+v, want 6 clean events (16..21)", st)
	}
	if re.LastSeq() != 21 || re.Horizon() != 15 {
		t.Fatalf("reopened last=%d horizon=%d, want 21/15", re.LastSeq(), re.Horizon())
	}
}

// Both kill arms of a mid-compaction crash must leave a journal that
// replays cleanly with every acked event above the horizon intact.
func TestKillMidCompactionBothArmsReplayClean(t *testing.T) {
	for _, afterSwap := range []bool{false, true} {
		name := "before-swap"
		if afterSwap {
			name = "after-swap"
		}
		t.Run(name, func(t *testing.T) {
			tb := NewTornBackend(0, 0) // never tears on Append
			j, err := Open(tb, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			fillJournal(t, j, 10)
			tb.ArmReplaceKill(afterSwap)
			// SetCovered pokes an async compaction (which hits the armed
			// kill); Compact() then synchronizes with the writer and may
			// count a second failure against the now-dead backend.
			j.SetCovered(6)
			st := j.Compact()
			if st.CompactErrors == 0 || st.Compactions != 0 {
				t.Fatalf("retention = %+v, want failed compactions only", st)
			}
			j.Close()

			re, err := Open(NewMemBackend(tb.Bytes()), Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			rst := re.ReplayStats()
			if rst.Corrupt != 0 || rst.Stale != 0 {
				t.Fatalf("%s: replay damage %+v, want clean", name, rst)
			}
			if re.LastSeq() != 10 {
				t.Fatalf("%s: last seq %d, want 10", name, re.LastSeq())
			}
			wantEvents, wantFirst := 10, uint64(1) // old journal: everything
			if afterSwap {
				wantEvents, wantFirst = 4, 7 // compacted: suffix only
			}
			evs := re.Events(0)
			if len(evs) != wantEvents || evs[0].Seq != wantFirst {
				t.Fatalf("%s: %d events from %d, want %d from %d",
					name, len(evs), evs[0].Seq, wantEvents, wantFirst)
			}
			// Either way, every acked event above the covered prefix is
			// present — nothing durable was lost to the crash.
			for seq := uint64(7); seq <= 10; seq++ {
				if len(re.Events(seq)) == 0 {
					t.Fatalf("%s: acked event %d missing after crash", name, seq)
				}
			}
		})
	}
}

func TestReplayTo(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	fillJournal(t, j, 10)

	evs, err := j.ReplayTo(4)
	if err != nil {
		t.Fatalf("ReplayTo(4): %v", err)
	}
	if len(evs) != 4 || evs[len(evs)-1].Seq != 4 {
		t.Fatalf("ReplayTo(4) = %d events ending at %d", len(evs), evs[len(evs)-1].Seq)
	}

	j.SetCovered(6)
	j.Compact()
	if _, err := j.ReplayTo(5); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReplayTo below horizon: err = %v, want ErrCompacted", err)
	}
	evs, err = j.ReplayTo(8)
	if err != nil {
		t.Fatalf("ReplayTo(8) above horizon: %v", err)
	}
	if len(evs) != 2 || evs[0].Seq != 7 || evs[1].Seq != 8 {
		t.Fatalf("ReplayTo(8) = %+v, want seqs 7,8", evs)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error, "" = valid
	}{
		{"zero is valid", Options{}, ""},
		{"budget with interval", Options{MaxBytes: MinMaxBytes, CheckpointInterval: time.Second}, ""},
		{"negative budget", Options{MaxBytes: -1}, "-journal-max-bytes"},
		{"budget below one batch", Options{MaxBytes: 1024, CheckpointInterval: time.Second}, "smaller than one group-commit batch"},
		{"budget without interval", Options{MaxBytes: MinMaxBytes}, "-journal-checkpoint-interval"},
	}
	for _, tc := range cases {
		err := tc.opt.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestOpenRejectsBudgetWithoutReplaceBackend(t *testing.T) {
	// slow-style backend without Replace: a budget would be unenforceable.
	type appendOnly struct{ Backend }
	_, err := Open(appendOnly{NewMemBackend(nil)}, Options{MaxBytes: MinMaxBytes})
	if err == nil || !strings.Contains(err.Error(), "atomic replace") {
		t.Fatalf("Open with budget on append-only backend: err = %v", err)
	}
}

// With prompt coverage the ladder never engages: the budget holds via
// compaction alone and usage stays bounded.
func TestBudgetHoldsWithPromptCoverage(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{MaxBatch: 4, MaxBytes: 2048})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	// Simulate an eager snapshotter: every commit is covered as soon as
	// its durable append returns.
	var maxUsage int64
	for i := 0; i < 400; i++ {
		seq := mustAppend(t, j, KindVerdict, fmt.Sprintf(`{"i":%d}`, i))
		j.SetCovered(seq)
		if u := j.Usage(); u > maxUsage {
			maxUsage = u
		}
	}
	st := j.Retention()
	if st.Compactions == 0 {
		t.Fatalf("no compactions under budget pressure: %+v", st)
	}
	if st.Shed != 0 || st.Level != "none" {
		t.Fatalf("ladder engaged despite prompt coverage: %+v", st)
	}
	// Usage may overshoot by at most one batch before the post-commit
	// compaction claws it back.
	if maxUsage > 2048+1024 {
		t.Fatalf("usage peaked at %d, want ≤ budget + one small batch", maxUsage)
	}
}

// With coverage frozen the ladder escalates: backpressure (a checkpoint
// request) and then shedding of async appends, while durable Append
// keeps working. Coverage arriving de-escalates back to none.
func TestDegradationLadderEscalatesAndRecovers(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{MaxBatch: 4, MaxBytes: 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	var ckptReqs atomic.Int64
	// The owner's snapshotter is broken: every checkpoint request
	// completes as an attempt but advances no coverage.
	j.SetCheckpointRequest(func() {
		ckptReqs.Add(1)
		go j.SetCovered(0)
	})
	var last uint64
	for i := 0; i < 64; i++ {
		last = mustAppend(t, j, KindVerdict, fmt.Sprintf(`{"i":%d}`, i))
	}
	waitLevel := func(want string) {
		t.Helper()
		for i := 0; i < 5000 && j.Retention().Level != want; i++ {
			time.Sleep(time.Millisecond)
		}
		if got := j.Retention().Level; got != want {
			t.Fatalf("level = %q, want %q (retention %+v)", got, want, j.Retention())
		}
	}
	waitLevel("shed")
	if ckptReqs.Load() == 0 {
		t.Fatal("ladder escalated without ever requesting a checkpoint")
	}

	// Async appends shed with a counted error; durable appends do not.
	errAsync := j.AppendAsync(KindOutcome, []byte(`{"shed":"me"}`))
	if !errors.Is(errAsync, ErrShed) {
		t.Fatalf("AppendAsync under shed: err = %v, want ErrShed", errAsync)
	}
	seq, err := j.Append(KindVerdict, []byte(`{"durable":true}`))
	if err != nil || seq <= last {
		t.Fatalf("durable Append under shed: seq=%d err=%v", seq, err)
	}
	if st := j.Retention(); st.Shed != 1 {
		t.Fatalf("shed count = %d, want 1", st.Shed)
	}

	// Coverage finally lands: compaction reclaims and the ladder resets.
	j.SetCovered(j.LastSeq())
	j.Compact()
	waitLevel("none")
	if err := j.AppendAsync(KindOutcome, []byte(`{"back":"open"}`)); err != nil {
		t.Fatalf("AppendAsync after recovery: %v", err)
	}
}

// Backpressure must release the writer as soon as a checkpoint attempt
// lands, even one that advances coverage enough to reclaim — the
// healthy middle rung of the ladder.
func TestBackpressureReleasedByCheckpoint(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{MaxBatch: 4, MaxBytes: 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	// A working snapshotter: each request covers everything committed.
	j.SetCheckpointRequest(func() {
		go j.SetCovered(j.LastSeq())
	})
	for i := 0; i < 200; i++ {
		mustAppend(t, j, KindVerdict, fmt.Sprintf(`{"i":%d}`, i))
	}
	st := j.Retention()
	if st.Shed != 0 {
		t.Fatalf("healthy snapshotter still shed %d appends: %+v", st.Shed, st)
	}
	if st.Compactions == 0 {
		t.Fatalf("no compaction ever ran: %+v", st)
	}
}
