// Package journal is the event-sourced request journal under checkd: an
// append-only log of typed events on the snapshot store's SNP1 record
// framing, written live by a batched single-writer loop and read once,
// at startup, to rebuild the state it implies.
//
// Concurrent appenders hand records to one writer goroutine that
// coalesces them into group commits — one flush per batch, one ack per
// record — so heavy write traffic pays one fsync-equivalent per batch
// instead of one per request. The journal's owner changes its serving
// state directly as requests happen and appends the matching event;
// on restart it folds the surviving events into that same state before
// it serves anything. Recovery is therefore replay, not reconstruction.
//
// The paper's frame is what makes this safe: correctness lives in
// convergence, not in fragile in-flight state. A torn tail, a corrupt
// record, or a lost unflushed batch is a bounded perturbation — replay
// resynchronizes past the damage (CRC + NextMagic), the sequence number
// never regresses, and the fold converges to the state implied by the
// surviving prefix.
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Limits and defaults. One event is a request/verdict-sized JSON blob;
// anything near the record cap is a bug, not data.
const (
	// DefaultMaxBatch is the group-commit coalescing bound.
	DefaultMaxBatch = 256
	// DefaultMaxQueue bounds records waiting for the writer; beyond it,
	// appenders block (backpressure, not unbounded memory).
	DefaultMaxQueue = 1024
	// MaxEventBytes bounds one event's payload.
	MaxEventBytes = 1 << 20
)

// Journal errors.
var (
	// ErrClosed rejects appends after Close.
	ErrClosed = errors.New("journal: closed")
	// ErrEventTooLarge rejects oversized payloads at admission.
	ErrEventTooLarge = errors.New("journal: event exceeds size bound")
	// ErrShed rejects fire-and-forget appends while the retention ladder
	// is in its shed stage: the disk budget is exhausted and compaction
	// plus a checkpoint attempt could not reclaim it. Never silent — the
	// caller sees the error and RetentionStats counts it.
	ErrShed = errors.New("journal: async append shed under disk pressure")
	// ErrCompacted rejects a ReplayTo target below the compaction
	// horizon: the prefix needed to reconstruct that state is gone.
	ErrCompacted = errors.New("journal: sequence below compaction horizon")
)

// Options tunes a journal. Zero values mean "use the default".
type Options struct {
	// MaxBatch caps records coalesced into one group commit.
	MaxBatch int
	// MaxQueue bounds the pending-append queue.
	MaxQueue int
	// MaxBytes, when positive, is the journal's disk budget: past it the
	// writer compacts, then applies backpressure, then sheds async
	// appends (see retention.go). Requires a ReplaceBackend. Zero means
	// unbounded (compaction still runs when requested explicitly).
	MaxBytes int64
	// CheckpointInterval is the cadence at which the journal's owner
	// promises to publish durable coverage (SetCovered) — the journal
	// itself never ticks a clock, but Validate rejects a budget with no
	// checkpoint cadence because compaction could then never reclaim.
	CheckpointInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	return o
}

// appendReq is one record handed to the writer. ack is nil for
// fire-and-forget appends (AppendAsync).
type appendReq struct {
	kind string
	data []byte
	ack  chan appendAck
}

type appendAck struct {
	seq uint64
	err error
}

// Journal is the append-only event log. Construct with Open, dispose
// with Close. Append/AppendAsync are safe for concurrent use; replay
// state (Events, LastSeq) is safe to read concurrently with appends.
type Journal struct {
	b   Backend
	opt Options

	appendc chan appendReq
	stop    chan struct{}
	done    chan struct{}

	mu      sync.Mutex
	closed  bool
	events  []Event // durable history, oldest first
	batches batchHistogram

	// offs[i] is where events[i]'s frame starts in the backend, counted
	// from the start of the backend's last rewrite; trimmed is how many
	// bytes compaction has since cut off its front. Writer-owned, and
	// valid only while offsOK: a failed append leaves the backend's
	// length unknown until the next rewrite.
	offs    []int64
	trimmed int64
	offsOK  bool

	// Retention state (retention.go). covered/ckptAttempts are guarded
	// by mu; a SetCovered call pokes attempted. ckptReq and selfCkpt are
	// set before traffic. compactc carries compaction requests to the
	// writer.
	covered      uint64
	ckptAttempts uint64
	pressureBase uint64 // ckptAttempts snapshot at backpressure escalation
	attempted    chan struct{}
	ckptReq      func()
	compactc     chan chan struct{}

	// In-journal checkpoints (checkpoint.go). ckptc carries whole
	// checkpoints to the writer; ckptDue marks a request the owner has
	// not answered yet. sinceCkpt and ckptSize are writer-owned.
	selfCkpt  bool
	ckptc     chan []appendReq
	ckptDue   atomic.Bool
	sinceCkpt int64 // bytes committed since the last checkpoint
	ckptSize  int64 // bytes of the last checkpoint

	lastSeq      atomic.Uint64 // highest durable sequence number
	depth        atomic.Int64  // records accepted but not yet flushed
	records      atomic.Int64  // records durably committed
	commits      atomic.Int64  // group commits flushed
	appendErrors atomic.Int64  // records whose flush failed

	usage         atomic.Int64  // backend bytes, tracked journal-side
	horizon       atomic.Uint64 // highest compacted-away sequence number
	level         atomic.Int32  // degradation ladder stage (DegradeNone…)
	compactions   atomic.Int64  // successful compaction swaps
	compactErrors atomic.Int64  // failed compaction swaps
	dropped       atomic.Int64  // events dropped by compaction
	reclaimed     atomic.Int64  // bytes reclaimed by compaction
	shed          atomic.Int64  // async appends shed under disk pressure

	replay Stats // decode stats from Open, immutable afterwards
}

// Open reads and validates b's existing contents (resynchronizing past
// torn or corrupt regions), then starts the writer loop. The returned
// journal continues the surviving sequence numbering: replayed state and
// new appends form one monotonic history.
func Open(b Backend, opt Options) (*Journal, error) {
	raw, err := b.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	events, offs, stats := decodeEvents(raw)
	j := &Journal{
		b:      b,
		opt:    opt.withDefaults(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		events: events,
		offs:   offs,
		// Damaged or stale records stay in the backend between the
		// events; the first compaction re-encodes rather than keep them.
		offsOK: stats.Corrupt == 0 && stats.Stale == 0,
		replay: stats,
	}
	if j.opt.MaxBytes > 0 {
		if _, ok := b.(ReplaceBackend); !ok {
			return nil, errors.New("journal: -journal-max-bytes requires a backend that supports atomic replace")
		}
	}
	j.attempted = make(chan struct{}, 1)
	j.compactc = make(chan chan struct{}, 1)
	j.ckptc = make(chan []appendReq)
	j.appendc = make(chan appendReq, j.opt.MaxQueue)
	j.usage.Store(int64(stats.Bytes))
	if n := len(events); n > 0 {
		j.lastSeq.Store(events[n-1].Seq)
		// A history starting above 1 is the signature of a prior
		// compaction: everything below the first surviving event was
		// covered and dropped. Recover the horizon so ReplayTo and
		// fleet hole detection stay honest across restarts.
		if first := events[0].Seq; first > 1 {
			j.horizon.Store(first - 1)
		}
	}
	go j.writer(j.stop)
	return j, nil
}

// ReplayStats reports what Open found: events accepted, corrupt records
// skipped, stale (sequence-regressing) records skipped, and resyncs.
func (j *Journal) ReplayStats() Stats { return j.replay }

// LastSeq returns the highest durable sequence number (0 = empty).
func (j *Journal) LastSeq() uint64 { return j.lastSeq.Load() }

// Depth returns the number of records accepted but not yet flushed —
// the journal's write backlog, exported as journal_depth.
func (j *Journal) Depth() int64 { return j.depth.Load() }

// Counters returns cumulative commit statistics.
func (j *Journal) Counters() (records, commits, appendErrors int64) {
	return j.records.Load(), j.commits.Load(), j.appendErrors.Load()
}

// BatchPercentiles reports the p50 and p99 group-commit batch sizes.
func (j *Journal) BatchPercentiles() (p50, p99 float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.batches.percentile(0.50), j.batches.percentile(0.99)
}

// Append durably appends one event and returns its sequence number. It
// blocks until the event's group commit has been flushed (or failed):
// when Append returns nil, the event is in the journal.
func (j *Journal) Append(kind string, data []byte) (uint64, error) {
	ack := make(chan appendAck, 1)
	if err := j.enqueue(appendReq{kind: kind, data: data, ack: ack}); err != nil {
		return 0, err
	}
	a := <-ack
	return a.seq, a.err
}

// AppendAsync appends one event without waiting for durability: the
// record rides the next group commit, and a flush failure is counted
// (Counters) rather than surfaced. Use it for derived bookkeeping
// events whose loss a restart can tolerate; verdicts use Append.
func (j *Journal) AppendAsync(kind string, data []byte) error {
	return j.enqueue(appendReq{kind: kind, data: data})
}

func (j *Journal) enqueue(r appendReq) error {
	if len(r.data) > MaxEventBytes {
		return fmt.Errorf("%w: %d bytes", ErrEventTooLarge, len(r.data))
	}
	// The ladder's last rung: fire-and-forget kinds shed under disk
	// pressure. Durable appends (with an ack) are never shed — they ride
	// the queue and either commit or return an error.
	if r.ack == nil && j.level.Load() >= DegradeShed {
		j.shed.Add(1)
		return ErrShed
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	// Count under the lock so Close's drain loop sees every accepted
	// record before deciding the queue is empty.
	j.depth.Add(1)
	j.mu.Unlock()
	j.appendc <- r
	return nil
}

// Events returns a copy of the durable events with Seq ≥ from, oldest
// first, through the head. from = 0 (or 1) returns the full history.
// Readers that need only a bounded run use Window.
func (j *Journal) Events(from uint64) []Event { return j.Window(from, math.MaxInt) }

// Window returns a copy of at most n durable events with Seq ≥ from,
// oldest first: O(n) however far from lies behind the head. It copies
// the headers under the lock rather than alias the history, because
// compaction clears dropped entries in place; the payloads are shared
// and immutable.
func (j *Journal) Window(from uint64, n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	lo := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq >= from })
	out := make([]Event, min(n, len(j.events)-lo))
	copy(out, j.events[lo:])
	return out
}

// writer is the single-writer group-commit loop: take one record, drain
// whatever else is queued (up to MaxBatch), flush once, ack each.
func (j *Journal) writer(stop chan struct{}) {
	defer close(j.done)
	for {
		var first appendReq
		select {
		case first = <-j.appendc:
		case ack := <-j.compactc:
			j.runCompaction()
			if ack != nil {
				close(ack)
			}
			continue
		case reqs := <-j.ckptc:
			j.commitCheckpoint(reqs)
			continue
		case <-stop:
			// Graceful close: flush everything accepted before Close.
			for j.depth.Load() > 0 {
				select {
				case r := <-j.appendc:
					j.commit(j.collect(r))
				case reqs := <-j.ckptc:
					j.commitCheckpoint(reqs)
				}
			}
			return
		}
		batch := j.collect(first)
		j.pressureGate()
		if n, err := j.commit(batch); err == nil {
			j.sinceCkpt += n
		}
		j.checkBudget()
		j.checkCheckpoint()
	}
}

// collect coalesces queued records behind first, up to MaxBatch.
func (j *Journal) collect(first appendReq) []appendReq {
	batch := append(make([]appendReq, 0, 16), first)
	for len(batch) < j.opt.MaxBatch {
		select {
		case r := <-j.appendc:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// commit flushes one batch: assign sequence numbers, encode, append to
// the backend, then publish and ack. Sequence numbers are consumed even
// when the flush fails — a torn write may have persisted a prefix of
// the batch, and reusing its numbers would make replay accept a stale
// record in place of a later acked one. It returns the bytes written.
func (j *Journal) commit(batch []appendReq) (int64, error) {
	base := j.lastSeq.Load()
	size := 0
	for _, r := range batch {
		size += len(r.data) + len(r.kind) + eventFraming
	}
	buf := make([]byte, 0, size)
	events := make([]Event, len(batch))
	starts := make([]int64, len(batch))
	ends := make([]int, len(batch))
	for i, r := range batch {
		events[i] = Event{Seq: base + uint64(i) + 1, Kind: r.kind, Data: r.data}
		starts[i] = int64(len(buf))
		buf = AppendEvent(buf, events[i])
		ends[i] = len(buf)
	}
	// A frame ends with the data, the body's closing brace and the CRC.
	// Where the data went in verbatim, the event shares the frame's copy,
	// so a backend that keeps buf (MemBackend) holds the batch once.
	at0 := j.usage.Load() + j.trimmed
	for i := range events {
		d := events[i].Data
		if at := ends[i] - 5 - len(d); len(d) > 0 && at > int(starts[i]) && bytes.Equal(buf[at:at+len(d)], d) {
			events[i].Data = buf[at : at+len(d) : at+len(d)]
		}
		starts[i] += at0
	}
	err := j.b.Append(buf)
	j.depth.Add(-int64(len(batch)))
	// Charge the budget even on error: a torn write may have persisted a
	// prefix of the batch, so over-counting is the safe direction.
	j.usage.Add(int64(len(buf)))
	if err != nil {
		j.offsOK = false
		j.appendErrors.Add(int64(len(batch)))
		for _, r := range batch {
			if r.ack != nil {
				r.ack <- appendAck{err: fmt.Errorf("journal: append: %w", err)}
			}
		}
		// The numbering still advances past the possibly-torn region.
		j.lastSeqAdvance(base + uint64(len(batch)))
		return int64(len(buf)), err
	}
	last := base + uint64(len(batch))
	j.offs = append(j.offs, starts...)
	j.mu.Lock()
	j.events = append(j.events, events...)
	j.batches.observe(len(batch))
	j.mu.Unlock()
	j.lastSeq.Store(last)
	j.records.Add(int64(len(batch)))
	j.commits.Add(1)
	for i, r := range batch {
		if r.ack != nil {
			r.ack <- appendAck{seq: events[i].Seq}
		}
	}
	return int64(len(buf)), nil
}

// lastSeqAdvance moves lastSeq forward without publishing events (the
// failed-flush path). CAS-free: only the writer mutates lastSeq.
func (j *Journal) lastSeqAdvance(to uint64) {
	if to > j.lastSeq.Load() {
		j.lastSeq.Store(to)
	}
}

// Close stops the writer after flushing every accepted record.
// Idempotent; appends after Close fail with ErrClosed.
func (j *Journal) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return
	}
	j.closed = true
	j.mu.Unlock()
	close(j.stop) // also releases a writer parked in the pressure gate
	<-j.done
}

// batchHistogram tracks group-commit batch sizes in power-of-two
// buckets (1, 2, 4, … 512, overflow) for the p50/p99 gauges.
type batchHistogram struct {
	counts [11]int64
	n      int64
}

// batchBucket maps a batch size to its bucket index.
func batchBucket(size int) int {
	i, bound := 0, 1
	for i < 10 && size > bound {
		bound <<= 1
		i++
	}
	return i
}

// batchBucketValue is the representative size of bucket i.
func batchBucketValue(i int) float64 {
	if i >= 10 {
		return 1024
	}
	return float64(int(1) << i)
}

func (h *batchHistogram) observe(size int) {
	h.counts[batchBucket(size)]++
	h.n++
}

// percentile returns the representative batch size at quantile q.
func (h *batchHistogram) percentile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return batchBucketValue(i)
		}
	}
	return batchBucketValue(len(h.counts) - 1)
}
