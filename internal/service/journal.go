package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/chaos"
	"repro/internal/journal"
	"repro/internal/service/cache"
)

// Event sourcing: when Config.JournalPath or Config.JournalBackend is
// set, every request arrival, outcome, computed verdict, and chaos
// campaign is also appended to an append-only journal as a typed event.
// The handlers change the verdict cache, /metrics counters, and
// campaign summary directly either way; the journal is written live and
// read once, in New, which folds the surviving events into that same
// state before the server handles its first request. A journaled and a
// journal-less server differ only by "append, and replay at boot".
//
// The replay invariant: folding any surviving prefix of the history
// converges to the state that prefix implies. A crash can lose at most
// the acknowledged-but-unflushed suffix of one group commit — and
// verdict events are appended durably *before* the HTTP response is
// written, so a verdict a client saw is a verdict replay reconstructs.
// An append failure (full disk, closed journal) costs event history,
// never a request and never a live counter.

// Outcome statuses, mirroring the /metrics response counters.
const (
	statusOK         = "ok"
	statusBadRequest = "bad_request"
	statusTimeout    = "timeout"
	statusOverload   = "overload"
	statusInternal   = "internal"
)

// requestEvent is the payload of a journal.KindRequest event.
type requestEvent struct {
	Kind string `json:"kind"`
}

// outcomeEvent is the payload of a journal.KindOutcome event. Latency
// marks outcomes that feed the per-kind latency histogram (successful
// computed checks only, matching the live path).
type outcomeEvent struct {
	Status    string `json:"status"`
	Kind      string `json:"kind,omitempty"`
	ElapsedUS int64  `json:"elapsed_us,omitempty"`
	Latency   bool   `json:"latency,omitempty"`
}

// campaignEvent is the payload of a journal.KindCampaign event: the
// summary row of one completed chaos campaign.
type campaignEvent struct {
	Protocol string `json:"protocol"`
	Episodes int    `json:"episodes"`
	Passed   int    `json:"passed"`
	Failed   int    `json:"failed"`
}

// A verdict event's payload is a persistedEntry — the exact shape the
// cache snapshot file and anti-entropy sync already use, so the three
// durability paths share one codec and one strictness policy.

// checkpointChunk is the payload of one journal.KindCheckpoint event: a
// run of the verdict cache as of journal sequence Head, least recently
// used first, in the same persistedEntry codec. A checkpoint is Parts
// chunks numbered from 0, which the journal commits as one batch.
type checkpointChunk struct {
	Entries []persistedEntry `json:"entries"`
	Head    uint64           `json:"head"`
	Part    int              `json:"part"`
	Parts   int              `json:"parts"`
}

// checkpointChunkBytes bounds one chunk's entries, well inside
// journal.MaxEventBytes; an entry larger than that on its own is left
// out of checkpoints.
const checkpointChunkBytes = 256 << 10

// pullWindow is how long a cursor an anti-entropy puller presented
// keeps holding the compaction horizon (see pullFloor).
const pullWindow = time.Second

// serverJournal bundles the journal with its retention machinery.
type serverJournal struct {
	j    *journal.Journal
	file *journal.FileBackend // non-nil when opened from JournalPath

	// ckptPoke wakes the checkpoint loop: the retention loop ahead of
	// its ticker, or the in-journal checkpoint writer. The journal sends
	// here (non-blocking) when it wants coverage to advance.
	ckptPoke chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once

	// selfCkpt is set when the server has no snapshot file and the
	// journal holds its checkpoints of the cache (checkpointWriter). last
	// is the newest one; checkpointWriter owns it until close.
	selfCkpt bool
	cache    *cache.Cache
	last     ckptMark
	// allowed is the coverage the checkpoints allow — the head of the
	// checkpoint before the newest — which pulls may hold back, but never
	// below least, the head of the checkpoint before that.
	allowed, least atomic.Uint64
	pulls          pullFloor
}

// newServerJournal opens the journal and folds its events into s's
// cache and counters. It never fails the server: an unopenable journal
// logs and returns nil, degrading to a journal-less server.
func newServerJournal(s *Server, cfg Config) *serverJournal {
	b := cfg.JournalBackend
	var file *journal.FileBackend
	if b == nil {
		f, err := journal.OpenFile(cfg.JournalPath)
		if err != nil {
			s.logf("journal: open %s: %v (running without a journal)", cfg.JournalPath, err)
			return nil
		}
		file, b = f, f
	}
	opts := journal.Options{
		MaxBatch:           cfg.JournalMaxBatch,
		MaxBytes:           cfg.JournalMaxBytes,
		CheckpointInterval: cfg.JournalCheckpointInterval,
	}
	j, err := journal.Open(b, opts)
	if err != nil {
		s.logf("journal: %v (running without a journal)", err)
		if file != nil {
			file.Close()
		}
		return nil
	}
	sj := &serverJournal{j: j, file: file,
		ckptPoke: make(chan struct{}, 1), stop: make(chan struct{})}
	if st := j.ReplayStats(); st.Events > 0 || st.Corrupt > 0 {
		s.logf("journal: replayed %d events (corrupt %d, stale %d, resyncs %d) from %d bytes",
			st.Events, st.Corrupt, st.Stale, st.Resyncs, st.Bytes)
	}
	last := s.replay(j.Events(1))
	if s.persister != nil {
		// From here on a snapshot records the journal head, read before
		// it copies the cache: recordVerdict puts a verdict before it
		// appends it, so every verdict committed at or below that head
		// is already in the copy. Until now, mid-replay, a snapshot kept
		// the loaded checkpoint, since the fold had not yet put the
		// verdicts above it.
		s.persister.setJournalSeq(j.LastSeq)
	}
	poke := func() {
		select {
		case sj.ckptPoke <- struct{}{}:
		default: // a poke is already pending
		}
	}
	switch {
	case s.persister == nil:
		// No snapshot file: the journal is its own compaction source. It
		// asks for a checkpoint as traffic accumulates and when a disk
		// budget needs coverage; the cache goes into the journal.
		sj.selfCkpt, sj.cache, sj.last = true, s.cache, last
		j.SetCheckpointWriter(poke)
		sj.wg.Add(1)
		go sj.checkpointWriter()
	case cfg.JournalMaxBytes > 0:
		// The snapshot file on disk already covers its recorded
		// checkpoint — seed coverage so a restart can compact
		// immediately instead of waiting for the first snapshot.
		j.SetCovered(s.persister.loadedCheckpoint.Load())
		j.SetCheckpointRequest(poke)
		sj.wg.Add(1)
		go sj.checkpointLoop(s.persister, cfg.JournalCheckpointInterval)
	}
	return sj
}

// replay folds journaled events into the server's state through the
// same mutations the live recorders make. The verdict cache starts from
// the newer of the cache snapshot file and the last complete in-journal
// checkpoint and folds only the verdicts above it, decoded as strictly
// as a snapshot load. Metrics and campaigns are memory-only and always
// fold the whole surviving history, so with a journal /metrics counters
// are journal-lifetime, not process-lifetime. It returns where the
// checkpoint it started from lies (zero without one).
func (s *Server) replay(evs []journal.Event) ckptMark {
	var floor uint64
	if s.persister != nil {
		floor = s.persister.loadedCheckpoint.Load()
	}
	mark := foldVerdicts(evs, floor, func(pe persistedEntry) {
		if val, err := decodeCachedValue(pe.Kind, pe.Value); err == nil {
			s.cache.Put(pe.Key, val)
		}
	})
	for _, ev := range evs {
		switch ev.Kind {
		case journal.KindRequest:
			var re requestEvent
			if json.Unmarshal(ev.Data, &re) == nil {
				s.metrics.applyRequest(re.Kind)
			}
		case journal.KindOutcome:
			var oe outcomeEvent
			if json.Unmarshal(ev.Data, &oe) == nil {
				s.metrics.applyOutcome(oe)
			}
		case journal.KindCampaign:
			var ce campaignEvent
			if json.Unmarshal(ev.Data, &ce) == nil {
				s.metrics.applyCampaign(ce)
			}
		}
	}
	return mark
}

// ckptMark places one checkpoint in the journal: the head whose state it
// holds and the sequence numbers of its first and last chunk.
type ckptMark struct{ head, first, end uint64 }

// foldVerdicts hands put, in fold order, the verdicts a cache rebuilt
// from evs holds: the entries of the last complete checkpoint whose head
// is above floor, oldest first, then every verdict event above that
// head — or above floor, without such a checkpoint. A checkpoint's
// entries go first, so they never displace a verdict journaled after its
// head. It returns the checkpoint used (zero without one).
func foldVerdicts(evs []journal.Event, floor uint64, put func(persistedEntry)) ckptMark {
	mark, entries := lastCheckpoint(evs)
	if mark.head > floor {
		for _, pe := range entries {
			put(pe)
		}
		floor = mark.head
	} else {
		mark = ckptMark{}
	}
	for _, ev := range evs {
		if ev.Kind != journal.KindVerdict || ev.Seq <= floor {
			continue
		}
		var pe persistedEntry
		if json.Unmarshal(ev.Data, &pe) == nil && pe.Key != "" {
			put(pe)
		}
	}
	return mark
}

// lastCheckpoint finds the last checkpoint in evs whose chunks all
// survive and returns where it lies and its entries. A crash mid-checkpoint
// leaves a prefix of its chunks, which is skipped here; the checkpoint
// before it is still whole, because coverage only ever reaches the
// checkpoint before the newest complete one.
func lastCheckpoint(evs []journal.Event) (ckptMark, []persistedEntry) {
	type header struct {
		Head  uint64 `json:"head"`
		Part  int    `json:"part"`
		Parts int    `json:"parts"`
	}
	// Chunks of one checkpoint are consecutive events; find the last run
	// numbered 0..Parts-1 from headers alone, then decode its entries.
	var run, last []journal.Event
	var mark ckptMark
	var runHead uint64
	for _, ev := range evs {
		if ev.Kind != journal.KindCheckpoint {
			run = nil
			continue
		}
		var h header
		if json.Unmarshal(ev.Data, &h) != nil || h.Parts <= 0 {
			run = nil
			continue
		}
		if h.Part == 0 {
			run, runHead = nil, h.Head
		}
		if h.Head != runHead || h.Part != len(run) {
			run = nil
			continue
		}
		run = append(run, ev)
		if len(run) == h.Parts {
			last, mark = run, ckptMark{runHead, run[0].Seq, ev.Seq}
			run = nil
		}
	}
	var entries []persistedEntry
	for _, ev := range last {
		var c checkpointChunk
		if json.Unmarshal(ev.Data, &c) != nil {
			return ckptMark{}, nil
		}
		entries = append(entries, c.Entries...)
	}
	return mark, entries
}

// encodeCheckpoint renders cache entries, least recently used first, as
// the chunks of one checkpoint at journal head. Each chunk is built in
// one buffer; the entries are the persistedEntry codec written by hand,
// so a value is marshaled once, straight into its chunk.
func encodeCheckpoint(head uint64, entries []cache.Entry) [][]byte {
	const open = `{"entries":[`
	var chunks [][]byte
	var cur []byte
	var entry bytes.Buffer
	enc := json.NewEncoder(&entry)
	field := func(name string, v any) bool {
		entry.WriteString(name)
		if enc.Encode(v) != nil {
			return false
		}
		entry.Truncate(entry.Len() - 1) // Encode's newline
		return true
	}
	for _, e := range entries {
		kind, ok := cacheEntryKind(e.Val)
		if !ok {
			continue
		}
		entry.Reset()
		if !field(`{"kind":`, kind) || !field(`,"key":`, e.Key) || !field(`,"value":`, e.Val) {
			continue
		}
		entry.WriteByte('}')
		if len(open)+entry.Len() > checkpointChunkBytes {
			continue
		}
		if cur != nil && len(cur)+1+entry.Len() > checkpointChunkBytes {
			chunks, cur = append(chunks, cur), nil
		}
		if cur == nil {
			cur = append(make([]byte, 0, checkpointChunkBytes+64), open...)
		} else {
			cur = append(cur, ',')
		}
		cur = append(cur, entry.Bytes()...)
	}
	if cur == nil {
		cur = []byte(open)
	}
	chunks = append(chunks, cur)
	for i := range chunks {
		chunks[i] = fmt.Appendf(chunks[i], `],"head":%d,"part":%d,"parts":%d}`, head, i, len(chunks))
	}
	return chunks
}

// checkpointLoop is the retention side of cache persistence: on a
// ticker — and immediately when the journal pokes under disk pressure —
// it snapshots the cache and publishes the snapshot's journal
// checkpoint as the journal's covered sequence. Every attempt reports,
// even a failed one (re-publishing the old coverage), so a writer
// blocked in backpressure always observes the attempt and re-evaluates
// instead of waiting forever on a snapshot that cannot land.
func (sj *serverJournal) checkpointLoop(p *cachePersister, interval time.Duration) {
	defer sj.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sj.stop:
			return
		case <-t.C:
		case <-sj.ckptPoke:
		}
		if ckpt, ok := p.snapshot(); ok {
			sj.j.SetCovered(ckpt)
		} else {
			sj.j.SetCovered(sj.j.Covered())
		}
	}
}

// checkpointWriter makes the journal of a server without a snapshot
// file its own compaction source: it answers each of the journal's
// checkpoint requests with checkpoint.
func (sj *serverJournal) checkpointWriter() {
	defer sj.wg.Done()
	for {
		select {
		case <-sj.stop:
			return
		case <-sj.ckptPoke:
			sj.checkpoint()
		}
	}
}

// checkpoint writes the verdict cache into the journal as one
// checkpoint, recording the head it read before copying the cache:
// recordVerdict puts a verdict before appending it, so every verdict at
// or below that head is in the copy. Once the checkpoint is durable it
// covers the history up to the previous checkpoint's head — not its own,
// so a replica pulling this journal's suffix keeps a checkpoint's
// interval of history above its cursor — and not past a cursor a
// puller presented recently (coverage). A failed attempt still
// reports, which releases a writer held in backpressure.
func (sj *serverJournal) checkpoint() {
	head := sj.j.LastSeq()
	chunks := encodeCheckpoint(head, sj.cache.Entries())
	first, err := sj.j.AppendCheckpoint(chunks)
	if err != nil {
		sj.j.SetCovered(sj.j.Covered())
		return
	}
	sj.least.Store(sj.allowed.Load())
	sj.allowed.Store(sj.last.head)
	sj.j.SetCovered(sj.coverage())
	sj.last = ckptMark{head, first, first + uint64(len(chunks)) - 1}
}

// coverage is what the checkpoints allow, held back to the lowest
// cursor a puller presented recently — by one checkpoint interval at
// most, which keeps the journal a few checkpoints long even when a
// puller falls ever further behind (its next pull then reports a hole).
func (sj *serverJournal) coverage() uint64 {
	return max(sj.least.Load(), sj.pulls.cap(sj.allowed.Load()))
}

// pulled records the cursor an anti-entropy puller presented and, on a
// server that checkpoints into its journal, releases the coverage that
// cursor no longer holds back.
func (sj *serverJournal) pulled(from uint64) {
	sj.pulls.saw(from)
	if sj.selfCkpt {
		sj.j.Cover(sj.coverage())
	}
}

// lastIsCurrent reports whether the newest checkpoint still holds the
// cache as it is: nothing but its chunks was journaled since it copied
// the cache (or the journal is empty).
func (sj *serverJournal) lastIsCurrent() bool {
	l := sj.last
	return sj.j.Depth() == 0 && (sj.j.LastSeq() == 0 || l.first == l.head+1 && sj.j.LastSeq() == l.end)
}

// pullFloor tracks the lowest cursor anti-entropy pullers presented to
// EncodeJournalSuffix in the last one to two pullWindows, so in-journal
// compaction holds back for history a puller that is still pulling has
// not read. A puller that stops for longer ages out; its next pull, if
// any, falls into the hole the journal reports.
type pullFloor struct {
	mu       sync.Mutex
	since    time.Time // start of the current window
	cur, old uint64    // lowest cursor in the current / previous window
	curOK    bool
	oldOK    bool
}

// roll starts a new window once the current one has run pullWindow.
func (p *pullFloor) roll(now time.Time) {
	if now.Sub(p.since) < pullWindow {
		return
	}
	p.old, p.oldOK = p.cur, p.curOK
	if now.Sub(p.since) >= 2*pullWindow {
		p.oldOK = false
	}
	p.curOK, p.since = false, now
}

// saw records a cursor a puller presented.
func (p *pullFloor) saw(from uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.roll(time.Now())
	if !p.curOK || from < p.cur {
		p.cur, p.curOK = from, true
	}
}

// cap lowers seq to the lowest recent cursor.
func (p *pullFloor) cap(seq uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.roll(time.Now())
	if p.curOK {
		seq = min(seq, p.cur)
	}
	if p.oldOK {
		seq = min(seq, p.old)
	}
	return seq
}

// close stops the checkpoint loop, then drains the journal's writer,
// then closes the file. A server that checkpoints into its journal
// checkpoints once more first, as the snapshot file is saved on close:
// hits are not journaled, so only a checkpoint keeps the recency they
// earned since the last one. It skips that when nothing but the last
// checkpoint was journaled since that checkpoint copied the cache: every
// hit journals its outcome after its lookup.
func (sj *serverJournal) close() {
	sj.closeOne.Do(func() {
		close(sj.stop)
		sj.wg.Wait()
		if sj.selfCkpt && !sj.lastIsCurrent() {
			sj.checkpoint()
		}
		sj.j.Close()
		if sj.file != nil {
			sj.file.Close()
		}
	})
}

// recordRequest counts one request arrival and, when the journal is up,
// appends it as an event.
func (s *Server) recordRequest(kind string) {
	s.metrics.applyRequest(kind)
	if s.journal != nil {
		s.journal.appendAsync(journal.KindRequest, requestEvent{Kind: kind})
	}
}

// recordOutcome counts one request outcome. observeLatency marks
// successful computed checks, which also feed kind's latency histogram.
func (s *Server) recordOutcome(status, kind string, elapsed time.Duration, observeLatency bool) {
	oe := outcomeEvent{Status: status, Kind: kind,
		ElapsedUS: elapsed.Microseconds(), Latency: observeLatency}
	s.metrics.applyOutcome(oe)
	if s.journal != nil {
		s.journal.appendAsync(journal.KindOutcome, oe)
	}
}

// recordVerdict stores one computed verdict in the cache and, when the
// journal is up, appends it as a durable event *before* the caller
// writes the HTTP response. When recordVerdict returns, a verdict the
// client is about to see is either in the journal or the journal is
// down and the entry lives only in memory — the pre-journal behavior.
// The cache put comes first: a snapshot relies on every verdict at or
// below the journal head already being in the cache.
func (s *Server) recordVerdict(kind, key string, val any) {
	s.cache.Put(key, val)
	if s.journal == nil {
		return
	}
	pk, ok := cacheEntryKind(val)
	if !ok {
		return
	}
	raw, err := json.Marshal(val)
	if err != nil {
		return
	}
	data, err := json.Marshal(persistedEntry{Kind: pk, Key: key, Value: raw})
	if err != nil {
		return
	}
	_, _ = s.journal.j.Append(journal.KindVerdict, data) // error degrades to cache-only
}

// recordCampaign counts one completed chaos campaign and, when the
// journal is up, appends its summary as an event.
func (s *Server) recordCampaign(rep *chaos.Report) {
	ce := campaignEvent{Protocol: rep.Protocol, Episodes: rep.Episodes,
		Passed: rep.Passed, Failed: rep.Failed}
	s.metrics.applyCampaign(ce)
	if s.journal != nil {
		s.journal.appendAsync(journal.KindCampaign, ce)
	}
}

// appendAsync journals one bookkeeping event without waiting for its
// group commit. A failure loses only the event: the caller has already
// changed the live state it records. Callers check for a nil journal
// first, so a journal-less server never boxes the payload.
func (sj *serverJournal) appendAsync(kind string, payload any) {
	if data, err := json.Marshal(payload); err == nil {
		_ = sj.j.AppendAsync(kind, data)
	}
}

// CampaignSummary is the /metrics view of the campaign counters.
type CampaignSummary struct {
	Campaigns int64 `json:"campaigns"`
	Episodes  int64 `json:"episodes"`
	Passed    int64 `json:"passed"`
	Failed    int64 `json:"failed"`
}

// JournalMetricsSnapshot is the /metrics journal section.
type JournalMetricsSnapshot struct {
	LastSeq      uint64          `json:"last_seq"`
	Depth        int64           `json:"journal_depth"`
	BatchP50     float64         `json:"journal_batch_size_p50"`
	BatchP99     float64         `json:"journal_batch_size_p99"`
	Records      int64           `json:"records"`
	Commits      int64           `json:"commits"`
	AppendErrors int64           `json:"append_errors"`
	Replay       journal.Stats   `json:"replay"`
	Campaigns    CampaignSummary `json:"campaigns"`
	// Retention is present when a disk budget is configured
	// (Config.JournalMaxBytes > 0): usage against the budget, the
	// compaction horizon, and the degradation-ladder counters, including
	// journal_shed_total.
	Retention *journal.RetentionStats `json:"retention,omitempty"`
}

// journalQueryMaxEvents bounds one GET /v1/journal page: a range query
// over a long history answers in pages, never one unbounded response.
const journalQueryMaxEvents = 512

// journalEventView is one decoded event in a GET /v1/journal response.
type journalEventView struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// JournalRangeResponse is the GET /v1/journal response: the decoded
// events with sequence numbers in [from, to], plus enough journal
// geometry (horizon, head) for the client to interpret absences —
// sequences at or below the horizon were compacted away, not lost.
type JournalRangeResponse struct {
	From    uint64             `json:"from"`
	To      uint64             `json:"to"`
	Horizon uint64             `json:"horizon"`
	LastSeq uint64             `json:"last_seq"`
	Events  []journalEventView `json:"events"`
	// Truncated is set when the range held more than one page; NextFrom
	// is the cursor to resume from.
	Truncated bool   `json:"truncated,omitempty"`
	NextFrom  uint64 `json:"next_from,omitempty"`
}

// handleJournalRange serves GET /v1/journal?from=N&to=M: the journaled
// event history as decoded JSON, paged at journalQueryMaxEvents. Both
// bounds are inclusive and optional (from defaults to 1, to to the
// journal head). It shares ServeHTTP's request-id and panic middleware
// like every other endpoint.
func (s *Server) handleJournalRange(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "this server runs without a journal (no -journal-path)"})
		return
	}
	parse := func(name string, def uint64) (uint64, bool) {
		raw := r.URL.Query().Get(name)
		if raw == "" {
			return def, true
		}
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("bad %s=%q: %v", name, raw, err)})
			return 0, false
		}
		return v, true
	}
	last := s.journal.j.LastSeq()
	from, ok := parse("from", 1)
	if !ok {
		return
	}
	to, ok := parse("to", last)
	if !ok {
		return
	}
	if from < 1 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad from=0: sequence numbers start at 1"})
		return
	}
	if to < from {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("bad range: from=%d > to=%d", from, to)})
		return
	}
	resp := JournalRangeResponse{
		From:    from,
		To:      to,
		Horizon: s.journal.j.Horizon(),
		LastSeq: last,
		Events:  []journalEventView{}, // render [] rather than null
	}
	// One event past the page tells a full page from a truncated one.
	for _, ev := range s.journal.j.Window(from, journalQueryMaxEvents+1) {
		if ev.Seq > to {
			break
		}
		if len(resp.Events) >= journalQueryMaxEvents {
			resp.Truncated = true
			resp.NextFrom = ev.Seq
			break
		}
		view := journalEventView{Seq: ev.Seq, Kind: string(ev.Kind)}
		if json.Valid(ev.Data) {
			view.Data = json.RawMessage(ev.Data)
		} else if raw, err := json.Marshal(string(ev.Data)); err == nil {
			// Non-JSON payloads (nothing this server writes, but the
			// journal format allows them) ship as a JSON string.
			view.Data = raw
		}
		resp.Events = append(resp.Events, view)
	}
	writeJSON(w, http.StatusOK, resp)
}

// JournalEnabled reports whether this server is event-sourced.
func (s *Server) JournalEnabled() bool { return s.journal != nil }

// JournalLastSeq returns the journal head sequence number (0 without a
// journal).
func (s *Server) JournalLastSeq() uint64 {
	if s.journal == nil {
		return 0
	}
	return s.journal.j.LastSeq()
}

// suffixWindow is how many event headers EncodeJournalSuffix copies out
// of the journal at a time. A replica journals a request and an outcome
// per check and a verdict per miss, so a 256-verdict pull spans two or
// three windows.
const suffixWindow = 512

// EncodeJournalSuffix renders this server's verdict events with
// sequence numbers above from, capped at max events (≤ 0 means all), in
// journal event framing. It returns the encoded suffix, the cursor the
// caller should present next time (the last sequence number the scan
// covered — non-verdict events, checkpoint chunks included, advance it
// without shipping), the number
// of verdict events shipped, and whether the request fell into a
// compaction hole: from below the retention horizon means events the
// cursor expects no longer exist, so the caller must fall back to a
// full digest exchange instead of trusting an incremental pull that
// silently skipped history. Fleet anti-entropy uses this as a cheap
// incremental alternative to full digest exchanges: a peer that
// remembers its cursor pulls exactly the verdicts it has not seen.
func (s *Server) EncodeJournalSuffix(from uint64, max int) (b []byte, next uint64, n int, hole bool) {
	next = from
	if s.journal == nil {
		return nil, next, 0, false
	}
	s.journal.pulled(from)
	if h := s.journal.j.Horizon(); from < h {
		// The events in (from, h] were compacted away; an incremental
		// reply would be a silent gap. Report the hole and where the
		// journal now begins so the caller can digest-sync and resume.
		return nil, h, 0, true
	}
	// Walk the journal a window at a time, so a pull copies and scans
	// about as many events as it ships, however far the cursor lags.
	for {
		win := s.journal.j.Window(next+1, suffixWindow)
		for _, ev := range win {
			if ev.Kind == journal.KindVerdict {
				if max > 0 && n >= max {
					return b, next, n, false // ship the rest from this cursor next round
				}
				b = journal.AppendEvent(b, ev)
				n++
			}
			next = ev.Seq
		}
		if len(win) < suffixWindow {
			return b, next, n, false
		}
	}
}

// JournalHorizon returns the compaction horizon: the highest sequence
// number dropped by retention (0 without a journal or before any
// compaction).
func (s *Server) JournalHorizon() uint64 {
	if s.journal == nil {
		return 0
	}
	return s.journal.j.Horizon()
}

// CoverJournalTo publishes seq as covered, making the prefix up to it
// eligible for compaction regardless of any checkpoint — tests use it to
// set up compaction deterministically. Servers cover their journals
// themselves, from cache snapshots or in-journal checkpoints.
func (s *Server) CoverJournalTo(seq uint64) {
	if s.journal != nil {
		s.journal.j.SetCovered(seq)
	}
}

// CompactJournal runs one synchronous compaction pass and reports the
// resulting retention stats (zero value without a journal).
func (s *Server) CompactJournal() journal.RetentionStats {
	if s.journal == nil {
		return journal.RetentionStats{}
	}
	return s.journal.j.Compact()
}

// VerdictKeysAsOf replays the journal up to seq (inclusive) and returns
// the cache keys the verdict history had established by then, once each,
// in fold order: the last complete checkpoint's entries, then the
// verdicts journaled after it. It answers "what did this server know as
// of sequence N" — time-travel debugging over the event-sourced history.
// Sequences below the compaction horizon return journal.ErrCompacted:
// that history was retired by retention and can no longer be
// reconstructed. So do sequences a server that checkpoints into its
// journal can no longer rebuild, between the horizon and the end of the
// first checkpoint that survived compaction.
func (s *Server) VerdictKeysAsOf(seq uint64) ([]string, error) {
	if s.journal == nil {
		return nil, nil
	}
	evs, err := s.journal.j.ReplayTo(seq)
	if err != nil {
		return nil, err
	}
	var keys []string
	seen := make(map[string]bool)
	mark := foldVerdicts(evs, 0, func(pe persistedEntry) {
		if !seen[pe.Key] {
			seen[pe.Key] = true
			keys = append(keys, pe.Key)
		}
	})
	if h := s.journal.j.Horizon(); h > 0 && mark.head == 0 && s.journal.selfCkpt {
		return nil, fmt.Errorf("%w: no complete checkpoint between horizon %d and seq %d", journal.ErrCompacted, h, seq)
	}
	return keys, nil
}

// ApplyJournalSuffix decodes a peer's journal suffix and inserts every
// verdict event that survives the framing, JSON, and kind checks — and
// is not already present — at the cold end of the cache, exactly like a
// digest-mode anti-entropy pull. The peer's sequence numbers are its
// own and are not replayed into this server's journal: pulled verdicts
// are warmth, not history, and a restart re-pulls them.
func (s *Server) ApplyJournalSuffix(b []byte) (loaded, skipped int64) {
	evs, stats := journal.DecodeEvents(b)
	skipped = int64(stats.Corrupt) + int64(stats.Stale)
	for _, ev := range evs {
		if ev.Kind != journal.KindVerdict {
			skipped++
			continue
		}
		var pe persistedEntry
		if err := json.Unmarshal(ev.Data, &pe); err != nil || pe.Key == "" {
			skipped++
			continue
		}
		val, err := decodeCachedValue(pe.Kind, pe.Value)
		if err != nil {
			skipped++
			continue
		}
		if s.cache.PutCold(pe.Key, val) {
			loaded++
		} else {
			skipped++
		}
	}
	return loaded, skipped
}

func (s *Server) journalMetricsSnapshot() *JournalMetricsSnapshot {
	j := s.journal.j
	snap := &JournalMetricsSnapshot{
		LastSeq: j.LastSeq(),
		Depth:   j.Depth(),
		Replay:  j.ReplayStats(),
		Campaigns: CampaignSummary{
			Campaigns: s.metrics.campaigns.Load(),
			Episodes:  s.metrics.episodes.Load(),
			Passed:    s.metrics.passed.Load(),
			Failed:    s.metrics.failed.Load(),
		},
	}
	snap.BatchP50, snap.BatchP99 = j.BatchPercentiles()
	snap.Records, snap.Commits, snap.AppendErrors = j.Counters()
	if ret := j.Retention(); ret.MaxBytes > 0 {
		snap.Retention = &ret
	}
	return snap
}
