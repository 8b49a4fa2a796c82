package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/journal"
)

// slowBackend models an fsync-priced disk: every Append pays a fixed
// latency before the bytes land in memory. The group-commit writer's
// whole value proposition is amortizing exactly this cost across a
// batch, so the throughput comparison runs on this backend — a free
// in-memory Append would hide the effect being measured.
type slowBackend struct {
	mem   journal.MemBackend
	delay time.Duration
	mu    sync.Mutex
	syncs int
}

func (s *slowBackend) ReadAll() ([]byte, error) { return s.mem.ReadAll() }

func (s *slowBackend) Append(b []byte) error {
	time.Sleep(s.delay)
	s.mu.Lock()
	s.syncs++
	s.mu.Unlock()
	return s.mem.Append(b)
}

func (s *slowBackend) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// E20Journal is the seventh extension experiment: the event-sourced
// request journal. Three properties are checked. Replay: a journal
// closed and reopened on its own bytes reconstructs the identical
// event history, and folding the reopened journal's events yields the
// per-kind counts the original traffic implies. Damage tolerance: a hard kill
// mid-write leaves a torn tail; replay resynchronizes past it and
// keeps the intact prefix, never failing open. Throughput: on a
// backend that charges a fixed fsync-equivalent latency per Append,
// the batched group-commit writer with 32 concurrent appenders beats
// one-flush-per-record sequential appends by ≥ 5× — the amortization
// the design exists to buy.
func E20Journal() *Report {
	r := &Report{
		ID:    "E20",
		Title: "Extension: event-sourced journal — replay equivalence, torn-tail resync, group-commit throughput",
		Claim: "crash recovery is replay: the journal's surviving prefix determines the state, one fold at startup rebuilds it, and group commit makes durable appends cheap under concurrency",
	}

	replayRows(r)
	tornTailRow(r)
	throughputRows(r)
	return r
}

// replayRows appends a mixed-kind history, reopens the journal on the
// same backend, and checks the history and the state folded from it
// survive the round trip.
func replayRows(r *Report) {
	const n = 64
	mem := journal.NewMemBackend(nil)
	j, err := journal.Open(mem, journal.Options{MaxBatch: 8})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "replay: open", Detail: err.Error()})
		return
	}
	kinds := []string{journal.KindRequest, journal.KindVerdict, journal.KindOutcome, journal.KindCampaign}
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf(`{"i":%d}`, i))
		if _, err := j.Append(kinds[i%len(kinds)], data); err != nil {
			r.Rows = append(r.Rows, Row{Name: "replay: append", Detail: err.Error()})
			return
		}
	}
	j.Close()

	re, err := journal.Open(journal.NewMemBackend(mustBytes(mem)), journal.Options{})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "replay: reopen", Detail: err.Error()})
		return
	}
	defer re.Close()
	st := re.ReplayStats()
	r.Rows = append(r.Rows, expectRow(
		fmt.Sprintf("replay: %d events round-trip", n),
		re.LastSeq() == n && st.Events == n && st.Corrupt == 0 && st.Stale == 0, true,
		fmt.Sprintf("last_seq=%d events=%d corrupt=%d stale=%d bytes=%d",
			re.LastSeq(), st.Events, st.Corrupt, st.Stale, st.Bytes)))

	// Startup replay is one fold over the reopened journal's events;
	// here the state is a per-kind count.
	count := make(map[string]int, len(kinds))
	for _, ev := range re.Events(1) {
		count[ev.Kind]++
	}
	want := n / len(kinds)
	allMatch := true
	for _, k := range kinds {
		if count[k] != want {
			allMatch = false
		}
	}
	r.Rows = append(r.Rows, expectRow(
		"replay: fold over reopened journal",
		allMatch, true,
		fmt.Sprintf("per-kind=%d/%d/%d/%d want %d each",
			count[kinds[0]], count[kinds[1]], count[kinds[2]], count[kinds[3]], want)))
}

// tornTailRow hard-kills the backend mid-write (the third flush
// persists only half its bytes, later flushes fail) and checks the
// reopened journal keeps exactly the intact prefix.
func tornTailRow(r *Report) {
	tb := journal.NewTornBackend(3, 2)
	j, err := journal.Open(tb, journal.Options{MaxBatch: 1})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "torn tail: open", Detail: err.Error()})
		return
	}
	acked := 0
	for i := 0; i < 6; i++ {
		if _, err := j.Append(journal.KindVerdict, []byte(`{"v":true}`)); err == nil {
			acked++
		}
	}
	j.Close()

	re, err := journal.Open(journal.NewMemBackend(tb.Bytes()), journal.Options{})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "torn tail: reopen", Detail: err.Error()})
		return
	}
	defer re.Close()
	st := re.ReplayStats()
	// Appends 1 and 2 flushed intact; the torn third acked but left only
	// half a record, and everything after died with the backend. Replay
	// must keep the two intact events and classify the tail as damage.
	r.Rows = append(r.Rows, expectRow(
		"torn tail: resync keeps intact prefix",
		st.Events == 2 && re.LastSeq() == 2 && st.Corrupt >= 1, true,
		fmt.Sprintf("acked=%d survived=%d corrupt=%d resyncs=%d (torn flush acked then lost — the bounded group-commit lie)",
			acked, st.Events, st.Corrupt, st.Resyncs)))
}

// throughputRows runs the same event volume through two write regimes
// on the same fsync-priced backend and compares throughput.
func throughputRows(r *Report) {
	const (
		syncCost  = time.Millisecond
		appenders = 32
		perWorker = 8
		total     = appenders * perWorker
	)
	payload := []byte(`{"runs":2,"converged":2,"mean_steps":17.5}`)

	// Regime 1: unbatched, concurrency 1 — every Append is its own group
	// commit, so every record pays the full sync latency.
	seq := &slowBackend{delay: syncCost}
	js, err := journal.Open(seq, journal.Options{MaxBatch: 1})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "throughput: open", Detail: err.Error()})
		return
	}
	start := time.Now()
	for i := 0; i < total; i++ {
		if _, err := js.Append(journal.KindVerdict, payload); err != nil {
			r.Rows = append(r.Rows, Row{Name: "throughput: unbatched append", Detail: err.Error()})
			return
		}
	}
	js.Close()
	seqElapsed := time.Since(start)
	seqRate := float64(total) / seqElapsed.Seconds()
	r.Rows = append(r.Rows, expectRow(
		"throughput: unbatched concurrency-1",
		seq.Syncs() == total, true,
		fmt.Sprintf("%d events, %d syncs, %.0f events/s", total, seq.Syncs(), seqRate)))

	// Regime 2: 32 concurrent appenders, group commit up to 32 — while
	// one flush sleeps, the queue refills, so the next commit carries a
	// whole batch and the sync cost is shared.
	par := &slowBackend{delay: syncCost}
	jb, err := journal.Open(par, journal.Options{MaxBatch: appenders})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "throughput: open batched", Detail: err.Error()})
		return
	}
	start = time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, appenders)
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		//gcvet:leak-ok each appender runs a finite perWorker loop (or bails on append error); wg.Wait below joins them
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := jb.Append(journal.KindVerdict, payload); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	jb.Close()
	batElapsed := time.Since(start)
	select {
	case err := <-errc:
		r.Rows = append(r.Rows, Row{Name: "throughput: batched append", Detail: err.Error()})
		return
	default:
	}
	batRate := float64(total) / batElapsed.Seconds()
	p50, p99 := jb.BatchPercentiles()
	r.Rows = append(r.Rows, expectRow(
		fmt.Sprintf("throughput: batched %d appenders", appenders),
		par.Syncs() < total, true,
		fmt.Sprintf("%d events, %d syncs, %.0f events/s, batch p50=%.0f p99=%.0f",
			total, par.Syncs(), batRate, p50, p99)))

	ratio := batRate / seqRate
	r.Rows = append(r.Rows, expectRow(
		"group-commit speedup ≥ 5×",
		ratio >= 5, true,
		fmt.Sprintf("%.1f× (%.0f vs %.0f events/s; %d vs %d syncs for %d events)",
			ratio, batRate, seqRate, par.Syncs(), seq.Syncs(), total)))
	r.Notes = append(r.Notes,
		fmt.Sprintf("sync cost modeled at %s per backend Append; the speedup is the sync-count ratio made wall-clock-visible — group commit turned %d syncs into %d",
			syncCost, seq.Syncs(), par.Syncs()),
		"replay rows are deterministic; throughput rows are wall-clock measurements, so the recorded ratio varies run to run while the ≥ 5× bound holds with wide margin",
	)
}

// mustBytes snapshots a MemBackend's contents; its ReadAll cannot fail.
func mustBytes(m *journal.MemBackend) []byte {
	b, _ := m.ReadAll()
	return b
}
