package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster/chaos"
	"repro/internal/journal"
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

// serverJournal bundles the journal with its retention machinery.
type serverJournal struct {
	j    *journal.Journal
	file *journal.FileBackend // non-nil when opened from JournalPath

	// ckptPoke wakes the retention checkpoint loop ahead of its ticker —
	// the journal sends here (non-blocking) when it wants coverage to
	// advance because the disk budget is under pressure.
	ckptPoke chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once
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
	s.replay(j.Events(1))
	if s.persister != nil {
		// From here on a snapshot records the journal head, read before
		// it copies the cache: recordVerdict puts a verdict before it
		// appends it, so every verdict committed at or below that head
		// is already in the copy. Until now, mid-replay, a snapshot kept
		// the loaded checkpoint, since the fold had not yet put the
		// verdicts above it.
		s.persister.setJournalSeq(j.LastSeq)
	}
	if cfg.JournalMaxBytes > 0 {
		if s.persister != nil {
			// The snapshot file on disk already covers its recorded
			// checkpoint — seed coverage so a restart can compact
			// immediately instead of waiting for the first snapshot.
			j.SetCovered(s.persister.loadedCheckpoint.Load())
			j.SetCheckpointRequest(func() {
				select {
				case sj.ckptPoke <- struct{}{}:
				default: // a poke is already pending
				}
			})
			sj.wg.Add(1)
			go sj.checkpointLoop(s.persister, cfg.JournalCheckpointInterval)
		} else {
			// No snapshots means coverage never advances: the budget can
			// only shed, never compact. Honor the bound but say so.
			s.logf("journal: -journal-max-bytes set without a cache snapshot path; " +
				"the budget can only shed async events, never compact")
		}
	}
	return sj
}

// replay folds journaled events into the server's state through the
// same mutations the live recorders make. Verdicts at or below the
// cache snapshot's checkpoint are already in the cache; the rest are
// decoded as strictly as a snapshot load. Metrics and campaigns are
// memory-only and always fold the full history, so with a journal
// /metrics counters are journal-lifetime, not process-lifetime.
func (s *Server) replay(evs []journal.Event) {
	var ckpt uint64
	if s.persister != nil {
		ckpt = s.persister.loadedCheckpoint.Load()
	}
	for _, ev := range evs {
		switch ev.Kind {
		case journal.KindVerdict:
			var pe persistedEntry
			if ev.Seq <= ckpt || json.Unmarshal(ev.Data, &pe) != nil || pe.Key == "" {
				continue
			}
			if val, err := decodeCachedValue(pe.Kind, pe.Value); err == nil {
				s.cache.Put(pe.Key, val)
			}
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

// close stops the checkpoint loop, then drains the journal's writer,
// then closes the file.
func (sj *serverJournal) close() {
	sj.closeOne.Do(func() {
		close(sj.stop)
		sj.wg.Wait()
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
	for _, ev := range s.journal.j.Events(from) {
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

// EncodeJournalSuffix renders this server's verdict events with
// sequence numbers above from, capped at max events (≤ 0 means all), in
// journal event framing. It returns the encoded suffix, the cursor the
// caller should present next time (the last sequence number the scan
// covered — non-verdict events advance it without shipping), the number
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
	if h := s.journal.j.Horizon(); from < h {
		// The events in (from, h] were compacted away; an incremental
		// reply would be a silent gap. Report the hole and where the
		// journal now begins so the caller can digest-sync and resume.
		return nil, h, 0, true
	}
	var buf bytes.Buffer
	for _, ev := range s.journal.j.Events(from + 1) {
		if ev.Kind == journal.KindVerdict {
			if max > 0 && n >= max {
				break // ship the rest from this cursor next round
			}
			buf.Write(journal.EncodeEvent(ev))
			n++
		}
		next = ev.Seq
	}
	return buf.Bytes(), next, n, false
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

// CoverJournalTo publishes seq as covered-by-snapshot, making the
// prefix up to it eligible for compaction. Fleet replicas (journal
// backends without a cache persister) use it to drive retention from
// their own snapshot schedule; tests use it to set up compaction
// deterministically.
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
// the cache keys the verdict history had established by then, in event
// order. It answers "what did this server know as of sequence N" —
// time-travel debugging over the event-sourced history. Sequences below
// the compaction horizon return journal.ErrCompacted: that history was
// retired by retention and can no longer be reconstructed.
func (s *Server) VerdictKeysAsOf(seq uint64) ([]string, error) {
	if s.journal == nil {
		return nil, nil
	}
	evs, err := s.journal.j.ReplayTo(seq)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, ev := range evs {
		if ev.Kind != journal.KindVerdict {
			continue
		}
		var pe persistedEntry
		if json.Unmarshal(ev.Data, &pe) == nil && pe.Key != "" {
			keys = append(keys, pe.Key)
		}
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
