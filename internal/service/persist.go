package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/store"
	"repro/internal/service/cache"
)

// Cache persistence: checkd snapshots its verdict cache to a single file
// so a restart serves prior verdicts as cache hits instead of re-running
// every check. The file is a stream of store.EncodeRecord frames (the
// same checksummed framing the cluster snapshot store uses), one per
// cache entry, each wrapping a kind-tagged JSON payload. The framing
// buys the same property it buys node snapshots: arbitrary bytes either
// decode to exactly what was written or fail loudly, and a loader can
// resynchronize past a corrupt record via the magic instead of
// abandoning the rest of the file. A corrupted cache costs cache misses,
// never a failed startup and never a wrong verdict.

// persistedEntry is the JSON payload inside one cache record. Kind
// selects the concrete response type on reload — the cache stores typed
// structs (serveFromCache asserts cachedResponse), so a reload must
// re-materialize the same types, not map[string]any. The same shape is
// the payload of a journal verdict event (journal.go), so snapshot,
// anti-entropy, and journal replay share one codec.
type persistedEntry struct {
	Kind  string          `json:"kind"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// kindJournalCheckpoint tags the snapshot file's leading checkpoint
// record: the journal sequence number the snapshot reflects, so a
// restart replays only the journal tail above it. Pre-journal snapshot
// files simply lack the record (checkpoint 0 = full replay), and a
// pre-journal build reading a new file skips it as an unknown kind.
const kindJournalCheckpoint = "journal-checkpoint"

// cacheEntryKind names the persistable kind of a cached value. Values of
// unknown types (never produced by the handlers) are reported as not
// persistable and skipped at save time.
func cacheEntryKind(v any) (string, bool) {
	switch v.(type) {
	case SelfStabResponse:
		return kindSelfStab, true
	case RefineResponse:
		return kindRefine, true
	case RingsimResponse:
		return kindRingsim, true
	case LintResponse:
		return kindLint, true
	case ClusterResponse:
		return kindCluster, true
	case ChaosResponse:
		return kindChaos, true
	}
	return "", false
}

// decodeCachedValue re-materializes one persisted value as the concrete
// response type for its kind. Decoding is strict: a payload with fields
// the current schema does not know (written by a different build) is
// rejected rather than loaded half-blank, because a stale-schema verdict
// served as a cache hit would be silently wrong.
func decodeCachedValue(kind string, raw json.RawMessage) (any, error) {
	var v any
	switch kind {
	case kindSelfStab:
		v = &SelfStabResponse{}
	case kindRefine:
		v = &RefineResponse{}
	case kindRingsim:
		v = &RingsimResponse{}
	case kindLint:
		v = &LintResponse{}
	case kindCluster:
		v = &ClusterResponse{}
	case kindChaos:
		v = &ChaosResponse{}
	default:
		return nil, fmt.Errorf("unknown cache entry kind %q", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	// The cache holds the response structs by value (that is what the
	// handlers Put and what asCached's value receiver expects), so
	// dereference before returning.
	switch t := v.(type) {
	case *SelfStabResponse:
		return *t, nil
	case *RefineResponse:
		return *t, nil
	case *RingsimResponse:
		return *t, nil
	case *LintResponse:
		return *t, nil
	case *ClusterResponse:
		return *t, nil
	default:
		return *v.(*ChaosResponse), nil
	}
}

// encodeCacheEntries renders a cache snapshot as a record stream,
// prefixed by a journal-checkpoint record when ckpt > 0. The entries
// arrive least recently used first (cache.Entries' order), so a reload
// that Puts them in sequence reconstructs the recency order. The
// record generation is the 1-based position — not load-bearing, but it
// makes a hexdump of the file navigable.
func encodeCacheEntries(ckpt uint64, entries []cache.Entry) []byte {
	var buf bytes.Buffer
	if ckpt > 0 {
		seq, _ := json.Marshal(ckpt)
		payload, err := json.Marshal(persistedEntry{
			Kind: kindJournalCheckpoint, Key: kindJournalCheckpoint, Value: seq})
		if err == nil {
			buf.Write(store.EncodeRecord(ckpt, payload))
		}
	}
	for i, e := range entries {
		kind, ok := cacheEntryKind(e.Val)
		if !ok {
			continue
		}
		val, err := json.Marshal(e.Val)
		if err != nil {
			continue
		}
		payload, err := json.Marshal(persistedEntry{Kind: kind, Key: e.Key, Value: val})
		if err != nil {
			continue
		}
		buf.Write(store.EncodeRecord(uint64(i+1), payload))
	}
	return buf.Bytes()
}

// decodeCacheEntries walks a record stream, returning every entry that
// survives framing, JSON, and kind checks, the journal checkpoint (0
// when the stream carries none), plus the count of records skipped as
// corrupt or incompatible. A bad record costs only itself: the loader
// resyncs to the next magic and keeps going.
func decodeCacheEntries(b []byte) (entries []cache.Entry, ckpt uint64, skipped int64) {
	for len(b) > 0 {
		_, payload, rest, err := store.DecodeRecord(b)
		if err != nil {
			skipped++
			if i := store.NextMagic(b); i > 0 {
				b = b[i:]
				continue
			}
			break
		}
		b = rest
		var pe persistedEntry
		if err := json.Unmarshal(payload, &pe); err != nil || pe.Key == "" {
			skipped++
			continue
		}
		if pe.Kind == kindJournalCheckpoint {
			var seq uint64
			if json.Unmarshal(pe.Value, &seq) == nil && seq > ckpt {
				ckpt = seq
			}
			continue
		}
		val, err := decodeCachedValue(pe.Kind, pe.Value)
		if err != nil {
			skipped++
			continue
		}
		entries = append(entries, cache.Entry{Key: pe.Key, Val: val})
	}
	return entries, ckpt, skipped
}

// cachePersister owns the cache file: it loads it once at construction,
// snapshots on a ticker, and snapshots a final time on close so a
// graceful shutdown never loses the working set.
type cachePersister struct {
	path     string
	interval time.Duration
	c        *cache.Cache

	loaded     atomic.Int64 // entries restored at boot
	skipped    atomic.Int64 // corrupt/incompatible records dropped at boot
	saves      atomic.Int64 // successful snapshots
	saveErrors atomic.Int64 // failed snapshots

	// loadedCheckpoint is the journal checkpoint read from the file at
	// boot; journal replay puts only the verdicts above it.
	loadedCheckpoint atomic.Uint64
	// journalSeq, once set after journal replay, reports the journal
	// head so each snapshot records how much journal it reflects; until
	// then a snapshot records loadedCheckpoint.
	journalSeq atomic.Value // func() uint64

	// snapMu serializes snapshot writers: the interval loop, the journal
	// retention checkpoint loop, and the shutdown snapshot may race.
	snapMu sync.Mutex

	stop     chan struct{}
	done     chan struct{}
	closeOne sync.Once
}

// newCachePersister loads path into c (tolerating a missing or corrupted
// file) and starts the snapshot loop. It never fails: persistence
// problems degrade to an empty cache, not a dead server.
func newCachePersister(path string, interval time.Duration, c *cache.Cache) *cachePersister {
	p := &cachePersister{
		path:     path,
		interval: interval,
		c:        c,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	p.load()
	go p.loop()
	return p
}

func (p *cachePersister) load() {
	b, err := os.ReadFile(p.path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			// Unreadable counts as one skipped "record": the file existed
			// and contributed nothing, which /metrics should show.
			p.skipped.Add(1)
		}
		return
	}
	entries, ckpt, skipped := decodeCacheEntries(b)
	for _, e := range entries {
		p.c.Put(e.Key, e.Val)
	}
	p.loaded.Store(int64(len(entries)))
	p.skipped.Store(skipped)
	p.loadedCheckpoint.Store(ckpt)
}

// setJournalSeq wires the journal head reader in.
func (p *cachePersister) setJournalSeq(fn func() uint64) {
	p.journalSeq.Store(fn)
}

func (p *cachePersister) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.snapshot()
		case <-p.stop:
			return
		}
	}
}

// snapshot writes the current cache to the file via write-temp + atomic
// rename, so a crash mid-snapshot leaves the previous file intact. The
// journal checkpoint is captured *before* the entries: verdicts put in
// between are both in the snapshot and above the recorded checkpoint,
// and replay re-puts them with the same value — overlap is stuttering,
// loss would not be. It returns the checkpoint the written snapshot
// covers and whether the write landed — the journal retention loop
// turns a true return into SetCovered(ckpt).
func (p *cachePersister) snapshot() (uint64, bool) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	ckpt := p.loadedCheckpoint.Load()
	if fn, ok := p.journalSeq.Load().(func() uint64); ok {
		ckpt = fn()
	}
	data := encodeCacheEntries(ckpt, p.c.Entries())
	tmp := p.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		p.saveErrors.Add(1)
		return 0, false
	}
	if err := os.Rename(tmp, p.path); err != nil {
		p.saveErrors.Add(1)
		return 0, false
	}
	p.saves.Add(1)
	return ckpt, true
}

// close stops the loop and takes the shutdown snapshot. Idempotent.
func (p *cachePersister) close() {
	p.closeOne.Do(func() {
		close(p.stop)
		<-p.done
		p.snapshot()
	})
}

// CachePersistSnapshot is the /metrics view of cache persistence.
type CachePersistSnapshot struct {
	Loaded         int64 `json:"loaded"`
	SkippedCorrupt int64 `json:"skipped_corrupt"`
	Saves          int64 `json:"saves"`
	SaveErrors     int64 `json:"save_errors"`
}

func (p *cachePersister) metricsSnapshot() *CachePersistSnapshot {
	return &CachePersistSnapshot{
		Loaded:         p.loaded.Load(),
		SkippedCorrupt: p.skipped.Load(),
		Saves:          p.saves.Load(),
		SaveErrors:     p.saveErrors.Load(),
	}
}
