package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// lintInto computes program i's lint verdict straight on one replica's
// service, so it lands in that replica's cache (and journal) whichever
// replica owns the program.
func lintInto(t *testing.T, svc *service.Server, i int) {
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
}

// A replica whose verdict cache is full skips its anti-entropy rounds:
// the round still counts, pulls nothing, and the peer serves no pull at
// all, in journal mode and in digest mode. The peer, which has room,
// still pulls from the full replica.
func TestFleetFullCacheSkipsAntiEntropy(t *testing.T) {
	const capacity = 4
	for _, journaled := range []bool{true, false} {
		name := map[bool]string{true: "journal", false: "digest"}[journaled]
		t.Run(name, func(t *testing.T) {
			f := testFleet(t, 2, func(c *Config) {
				c.Journal = journaled
				c.Service.CacheEntries = capacity
			})
			full, peer := f.Replica(0), f.Replica(1)
			for i := 0; i < capacity; i++ {
				lintInto(t, full.Service(), i)
			}
			lintInto(t, peer.Service(), capacity)
			if free := full.Service().CacheFree(); free != 0 {
				t.Fatalf("filled replica has %d free slots, want 0", free)
			}

			served, rounds := peer.aeServed.Load(), full.aeRounds.Load()
			if pulled := full.AntiEntropyRound(); pulled != 0 {
				t.Fatalf("full replica pulled %d verdicts, want 0", pulled)
			}
			if got := peer.aeServed.Load(); got != served {
				t.Fatalf("peer served %d pulls to a full replica, want none", got-served)
			}
			if full.aeRounds.Load() != rounds+1 {
				t.Fatal("the skipped round was not counted")
			}

			if pulled := peer.AntiEntropyRound(); pulled == 0 {
				t.Fatalf("peer with %d free slots pulled nothing", capacity-1)
			}
			if full.aeServed.Load() == 0 {
				t.Fatal("the full replica served no pull to a peer with room")
			}
		})
	}
}

// A journal replica whose replay refills a full cache becomes ready
// after a restart, though its anti-entropy rounds skip: the first
// round's readiness does not wait on a pull it could not keep.
func TestFleetFullCacheReadyAfterRestart(t *testing.T) {
	const capacity = 4
	f := testFleet(t, 2, func(c *Config) {
		c.Journal = true
		c.Service.CacheEntries = capacity
		c.AntiEntropyInterval = 20 * time.Millisecond
	})
	rp, peer := f.Replica(0), f.Replica(1)
	for i := 0; i < capacity; i++ {
		lintInto(t, rp.Service(), i)
	}

	f.CrashReplica(0)
	served := peer.aeServed.Load()
	if err := f.RestartReplica(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if free := rp.Service().CacheFree(); free != 0 {
		t.Fatalf("replay left %d free slots, want a full cache", free)
	}
	if !f.AwaitReady(5 * time.Second) {
		t.Fatal("restarted replica with a full cache never became ready")
	}
	if got := peer.aeServed.Load(); got != served {
		t.Fatalf("peer served %d pulls to the restarted full replica, want none", got-served)
	}
}
