package journal

import (
	"fmt"
	"sort"
)

// Retention: checkpoint-anchored compaction plus a disk budget with an
// explicit degradation ladder.
//
// Compaction drops the journal prefix covered by a durable checkpoint —
// the owner asserts this with SetCovered after a cache snapshot lands on
// disk, or after a checkpoint written into the journal itself
// (checkpoint.go). Nothing reads the journal after startup except time
// travel and the fleet's suffix pulls, which detect the horizon
// themselves, so coverage alone decides what may go. The surviving
// suffix is rewritten to the backend in one atomic Replace (write temp +
// fsync + rename + fsync dir for FileBackend), or cut in place by a
// PrefixDropper, so a kill at any instant leaves either the old or the
// new journal, both fully replayable.
//
// The budget (Options.MaxBytes) degrades in explicit, observable rungs
// when the journal outgrows it:
//
//  1. compact — drop the covered prefix; usually enough.
//  2. backpressure — compaction could not reclaim (coverage is stale),
//     so request a checkpoint from the owner and hold the writer before
//     its next commit until a checkpoint attempt completes. Appenders
//     feel this through the bounded queue.
//  3. shed — the checkpoint attempt didn't reclaim either (disk full,
//     snapshot failing). Fire-and-forget appends (AppendAsync) are
//     refused with ErrShed and counted; durable Append keeps its
//     durable-or-error contract and is never shed.
//
// Every rung is visible in RetentionStats; nothing is dropped silently.
// All decisions are event-driven (coverage attempts, commit sizes) —
// the journal never reads a clock, so the ladder is deterministic.

// Degradation ladder stages, in escalation order.
const (
	// DegradeNone: within budget (or no budget configured).
	DegradeNone int32 = iota
	// DegradeBackpressure: over budget after compaction; the writer
	// holds commits until the owner attempts a checkpoint.
	DegradeBackpressure
	// DegradeShed: still over budget after a checkpoint attempt; async
	// appends are shed (counted), durable appends still commit.
	DegradeShed
)

// MinMaxBytes is the smallest admissible disk budget: one group commit
// of modest events must fit, or the ladder would thrash on every batch.
const MinMaxBytes = 64 << 10

// Validate rejects nonsensical retention settings with errors naming
// the flag, mirroring the repo's flag-validation convention. Call it at
// flag-parse time; Open itself only enforces what would corrupt state
// (a budget on a backend without atomic replace).
func (o Options) Validate() error {
	if o.MaxBytes < 0 {
		return fmt.Errorf("journal: -journal-max-bytes must be ≥ 0, got %d", o.MaxBytes)
	}
	if o.MaxBytes > 0 && o.MaxBytes < MinMaxBytes {
		return fmt.Errorf("journal: -journal-max-bytes %d is smaller than one group-commit batch (minimum %d)", o.MaxBytes, int64(MinMaxBytes))
	}
	if o.MaxBytes > 0 && o.CheckpointInterval <= 0 {
		return fmt.Errorf("journal: -journal-checkpoint-interval must be positive when -journal-max-bytes is set, got %s", o.CheckpointInterval)
	}
	return nil
}

// RetentionStats is the observable state of the retention layer.
type RetentionStats struct {
	// MaxBytes is the configured budget (0 = unbounded).
	MaxBytes int64 `json:"max_bytes"`
	// UsageBytes is the journal's current backend footprint as tracked
	// by the writer (replayed bytes + committed bytes − reclaimed).
	UsageBytes int64 `json:"usage_bytes"`
	// CoveredSeq is the highest sequence the owner has asserted durable
	// coverage for (cache snapshot checkpoint).
	CoveredSeq uint64 `json:"covered_seq"`
	// HorizonSeq is the compaction horizon: events at or below it have
	// been dropped from the journal.
	HorizonSeq uint64 `json:"horizon_seq"`
	// Level names the current degradation rung.
	Level string `json:"level"`
	// Compactions / CompactErrors count swap attempts.
	Compactions   int64 `json:"compactions"`
	CompactErrors int64 `json:"compact_errors"`
	// DroppedEvents / ReclaimedBytes measure what compaction removed.
	DroppedEvents  int64 `json:"dropped_events"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// Shed counts async appends refused under disk pressure
	// (journal_shed_total in /metrics). Never incremented silently —
	// every count corresponds to an ErrShed returned to a caller.
	Shed int64 `json:"journal_shed_total"`
}

// Retention returns a snapshot of the retention state.
func (j *Journal) Retention() RetentionStats {
	j.mu.Lock()
	covered := j.covered
	j.mu.Unlock()
	return RetentionStats{
		MaxBytes:       j.opt.MaxBytes,
		UsageBytes:     j.usage.Load(),
		CoveredSeq:     covered,
		HorizonSeq:     j.horizon.Load(),
		Level:          levelName(j.level.Load()),
		Compactions:    j.compactions.Load(),
		CompactErrors:  j.compactErrors.Load(),
		DroppedEvents:  j.dropped.Load(),
		ReclaimedBytes: j.reclaimed.Load(),
		Shed:           j.shed.Load(),
	}
}

func levelName(l int32) string {
	switch l {
	case DegradeBackpressure:
		return "backpressure"
	case DegradeShed:
		return "shed"
	default:
		return "none"
	}
}

// Horizon returns the compaction horizon: the highest sequence number
// whose event has been dropped. 0 means nothing was ever compacted.
func (j *Journal) Horizon() uint64 { return j.horizon.Load() }

// Usage returns the journal's tracked backend footprint in bytes.
func (j *Journal) Usage() int64 { return j.usage.Load() }

// Covered returns the highest externally-covered sequence number.
func (j *Journal) Covered() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.covered
}

// SetCovered asserts that all events with Seq ≤ seq are durably
// reconstructible without the journal (a cache snapshot embedding a
// journal checkpoint ≥ seq is on disk). Coverage only advances; calling
// with an older seq still counts as a checkpoint attempt, which is what
// releases a writer waiting in the backpressure rung — the owner must
// call SetCovered after every snapshot attempt, successful or not, or
// pressure would hold the writer until the next attempt.
func (j *Journal) SetCovered(seq uint64) {
	j.mu.Lock()
	if seq > j.covered {
		j.covered = seq
	}
	j.ckptAttempts++
	j.mu.Unlock()
	select {
	case j.attempted <- struct{}{}:
	default: // a wakeup is already pending
	}
	j.pokeCompaction()
}

// Cover advances coverage to seq like SetCovered, but is not a
// checkpoint attempt: nothing new became durable, coverage an earlier
// checkpoint allowed was only held back until now. It schedules a
// compaction when coverage moved.
func (j *Journal) Cover(seq uint64) {
	j.mu.Lock()
	moved := seq > j.covered
	if moved {
		j.covered = seq
	}
	j.mu.Unlock()
	if moved {
		j.pokeCompaction()
	}
}

// SetCheckpointRequest installs the owner's checkpoint trigger, called
// by the writer (non-blocking, coalesced by the owner) when compaction
// alone cannot reclaim the budget. Install before traffic.
func (j *Journal) SetCheckpointRequest(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ckptReq = fn
}

// Compact requests a compaction pass on the writer goroutine and waits
// for it, then returns the resulting retention state. Safe to call
// concurrently with appends; a no-op when nothing is droppable.
func (j *Journal) Compact() RetentionStats {
	ack := make(chan struct{})
	select {
	case j.compactc <- ack:
		select {
		case <-ack:
		case <-j.done:
		}
	case <-j.done:
	}
	return j.Retention()
}

// pokeCompaction schedules a compaction pass without waiting. The
// buffered channel coalesces bursts; the writer drains it between
// batches.
func (j *Journal) pokeCompaction() {
	select {
	case j.compactc <- nil:
	default:
	}
}

// ReplayTo returns the event history up to and including seq — the
// time-travel input for rebuilding "state as of seq N". It fails with
// ErrCompacted when seq is below the compaction horizon, because the
// prefix needed for the reconstruction no longer exists.
func (j *Journal) ReplayTo(seq uint64) ([]Event, error) {
	if h := j.horizon.Load(); seq < h {
		return nil, fmt.Errorf("%w: seq %d < horizon %d", ErrCompacted, seq, h)
	}
	// Size the copy under the lock, then trim: a compaction between the
	// two reads only shortens the prefix, so the window may reach past
	// seq but never stops short of it.
	j.mu.Lock()
	n := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq > seq })
	j.mu.Unlock()
	evs := j.Window(0, n)
	return evs[:sort.Search(len(evs), func(i int) bool { return evs[i].Seq > seq })], nil
}

// retentionHorizon computes the highest droppable sequence number:
// everything covered externally, strictly below the last event — the
// journal always keeps its newest event so a restart resumes the
// sequence numbering instead of restarting at zero underneath the
// cache snapshot's checkpoint.
func (j *Journal) retentionHorizon() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.events)
	if n == 0 {
		return 0
	}
	if newest := j.events[n-1].Seq; j.covered >= newest {
		return newest - 1
	}
	return j.covered
}

// runCompaction cuts the backend down to the suffix above the retention
// horizon. Writer goroutine only: nothing else mutates j.events or
// appends to the backend while the swap is in flight, which is the
// whole concurrency argument for compacting on the writer — and why the
// writer reads j.events without the lock and takes it only to publish
// the shorter history, so Events readers never wait on the rewrite.
func (j *Journal) runCompaction() {
	rb, ok := j.b.(ReplaceBackend)
	if !ok {
		return
	}
	target := j.retentionHorizon()
	if target <= j.horizon.Load() {
		return
	}
	events := j.events
	// First surviving index: events are sorted by Seq.
	lo := sort.Search(len(events), func(i int) bool { return events[i].Seq > target })
	if lo == 0 {
		j.horizon.Store(target) // nothing stored below target (gaps)
		return
	}
	size, err := j.cutPrefix(rb, lo)
	if err != nil {
		j.compactErrors.Add(1)
		return
	}
	j.mu.Lock()
	j.events = events[lo:]
	j.mu.Unlock()
	// Readers copy under the lock, so none can reach the dropped events
	// any more; clearing them lets their payloads go before the slice's
	// next reallocation.
	clear(events[:lo])
	old := j.usage.Swap(size)
	if d := old - size; d > 0 {
		j.reclaimed.Add(d)
	}
	j.dropped.Add(int64(lo))
	j.horizon.Store(target)
	j.compactions.Add(1)
	// Any compaction that restores the budget de-escalates the ladder
	// immediately — recovery is as observable as degradation.
	if max := j.opt.MaxBytes; max > 0 && j.usage.Load() <= max {
		j.level.Store(DegradeNone)
	}
}

// cutPrefix removes the frames of j.events[:lo] from the backend and
// returns the backend's new size. A backend that can drop a prefix in
// place keeps the surviving frames as they are, provided the writer
// knows where the first of them starts; any other backend gets the
// surviving events re-encoded and swapped in whole.
func (j *Journal) cutPrefix(rb ReplaceBackend, lo int) (int64, error) {
	if pd, ok := rb.(PrefixDropper); ok && j.offsOK {
		n := j.offs[lo] - j.trimmed
		if err := pd.DropPrefix(n); err != nil {
			return 0, err
		}
		j.trimmed += n
		j.offs = j.offs[lo:]
		return j.usage.Load() - n, nil
	}
	var buf []byte
	offs := make([]int64, 0, len(j.events)-lo)
	for _, ev := range j.events[lo:] {
		offs = append(offs, int64(len(buf)))
		buf = AppendEvent(buf, ev)
	}
	if err := rb.Replace(buf); err != nil {
		return 0, err
	}
	j.offs, j.trimmed, j.offsOK = offs, 0, true
	return int64(len(buf)), nil
}

// checkBudget runs after every commit: evaluate the ladder. Rung 1 is
// always a compaction attempt; if usage still exceeds the budget, ask
// the owner for a checkpoint and escalate one rung. De-escalation is
// immediate the moment any compaction brings usage back under budget.
func (j *Journal) checkBudget() {
	max := j.opt.MaxBytes
	if max <= 0 {
		return
	}
	if j.usage.Load() <= max {
		j.level.Store(DegradeNone)
		return
	}
	j.runCompaction()
	if j.usage.Load() <= max {
		j.level.Store(DegradeNone)
		return
	}
	// Snapshot the attempt counter BEFORE issuing the request: the
	// owner's checkpoint may complete (and call SetCovered) before the
	// writer reaches the pressure gate, and the gate must treat that as
	// the attempt it was waiting for, not wedge waiting for another.
	j.mu.Lock()
	req := j.ckptReq
	base := j.ckptAttempts
	j.mu.Unlock()
	switch j.level.Load() {
	case DegradeNone:
		if req == nil {
			// Nobody to ask for coverage: backpressure would hold the
			// writer forever. Skip straight to shedding.
			j.level.Store(DegradeShed)
			return
		}
		j.mu.Lock()
		j.pressureBase = base
		j.mu.Unlock()
		j.level.Store(DegradeBackpressure)
		req()
	case DegradeBackpressure:
		// pressureGate already held a commit through one checkpoint
		// attempt and the budget is still blown: escalate, but keep
		// asking — recovery rides the next successful checkpoint.
		j.level.Store(DegradeShed)
		if req != nil {
			req()
		}
	case DegradeShed:
		if req != nil {
			req()
		}
	}
}

// pressureGate holds the writer before a commit while the ladder is in
// the backpressure rung, until a checkpoint attempt completes (or the
// journal closes). An in-journal checkpoint (AppendCheckpoint) is such
// an attempt, and only the writer can commit it, so the gate lets it
// through while it holds everything else. The gate then compacts with
// whatever coverage the attempt produced; if that clears the budget the
// ladder resets and traffic proceeds as if nothing happened — the
// paper's convergence frame applied to storage: a bounded perturbation,
// then re-convergence.
func (j *Journal) pressureGate() {
	if j.opt.MaxBytes <= 0 || j.level.Load() != DegradeBackpressure {
		return
	}
	for j.pressureHeld() {
		select {
		case <-j.attempted:
		case reqs := <-j.ckptc:
			j.commitCheckpoint(reqs)
		case <-j.stop:
		}
	}
	j.runCompaction()
	if j.usage.Load() <= j.opt.MaxBytes {
		j.level.Store(DegradeNone)
	}
}

// pressureHeld reports whether the gate must keep holding: still in the
// backpressure rung, open, and no checkpoint attempt since escalation.
func (j *Journal) pressureHeld() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.closed && j.level.Load() == DegradeBackpressure && j.ckptAttempts <= j.pressureBase
}
