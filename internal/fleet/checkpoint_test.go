package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// A journal-fleet replica compacts behind checkpoints of its own cache:
// fed fresh verdicts until its horizon moves, it then crashes and
// restarts on its fleet-held backend, serves every verdict its cache
// held as cached, and continues its sequence numbering above the old
// head.
func TestFleetJournalCheckpointCompactsAcrossRestart(t *testing.T) {
	const capacity = 64
	f := testFleet(t, 2, func(c *Config) {
		c.Journal = true
		c.Service.CacheEntries = capacity
	})
	// Straight into the replica's service: the verdict lands in its own
	// journal whichever replica owns the program.
	lint := func(svc *service.Server, i int) service.LintResponse {
		t.Helper()
		raw, err := json.Marshal(service.LintRequest{Source: LoadgenProgram(i)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lint", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("lint %d: %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		var out service.LintResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	svc := f.Replica(0).Service()
	n := 0
	for ; svc.JournalHorizon() == 0; n++ {
		if n > 20000 {
			t.Fatal("no compaction after 20000 fresh verdicts")
		}
		lint(svc, n)
	}
	held := svc.CacheKeys()
	last := svc.JournalLastSeq()

	f.CrashReplica(0)
	if err := f.RestartReplica(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	svc = f.Replica(0).Service()
	if svc.JournalHorizon() == 0 {
		t.Fatal("the restarted journal lost its compaction horizon")
	}
	replayed := map[string]bool{}
	for _, k := range svc.CacheKeys() {
		replayed[k] = true
	}
	for _, k := range held {
		if !replayed[k] {
			t.Fatalf("verdict %s was cached before the crash, not after the restart", k)
		}
	}
	for i := n - capacity; i < n; i++ {
		if out := lint(svc, i); !out.Cached {
			t.Fatalf("program %d recomputed after the restart", i)
		}
	}
	lint(svc, n)
	if got := svc.JournalLastSeq(); got <= last {
		t.Fatalf("new events at seq %d, want above the old head %d", got, last)
	}
}
