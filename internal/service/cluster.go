package service

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/store"
	"repro/internal/service/cache"
	"repro/internal/sim"
)

const kindCluster = "cluster"

// cluster admission bounds. Every process is a live goroutine and every
// step a scheduler round-trip, so the caps are far below ringsim's: a
// cluster request simulates one episode in real actor machinery, not a
// batch of array updates.
const (
	maxClusterProcs    = 512
	maxClusterSteps    = 1_000_000
	maxClusterSchedule = 256
)

// ClusterRequest is the body of POST /v1/cluster: one episode of the
// message-passing runtime (internal/cluster) over the deterministic
// in-proc transport, mirroring `ringsim cluster`'s flags.
type ClusterRequest struct {
	Family string `json:"family"`      // dijkstra3 | dijkstra4 | kstate | newthree
	Procs  int    `json:"procs"`       // number of processes (≥ 3)
	K      int    `json:"k,omitempty"` // kstate only; default procs
	Seed   int64  `json:"seed,omitempty"`
	// Faults is the number of registers corrupted in the initial
	// configuration (0 = start from the legitimate configuration).
	Faults int `json:"faults,omitempty"`
	// Steps is the scheduler step budget (default 10000).
	Steps int `json:"steps,omitempty"`
	// Schedule is a fault schedule in the cluster syntax, e.g.
	// "corrupt@40:node=1,val=0; drop@60:from=2,to=3,count=2".
	Schedule string `json:"schedule,omitempty"`
	// SnapshotEvery emits a tokens-over-time snapshot event every N
	// steps (0 = none).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// RecordMoves adds one event per executed move to the stream.
	RecordMoves bool `json:"record_moves,omitempty"`
	// Persist gives the episode an in-memory snapshot store (never the
	// server's disk): registers persist every PersistEvery steps and
	// crash faults recover from validated snapshots.
	Persist bool `json:"persist,omitempty"`
	// PersistEvery is the snapshot interval in steps (≤ 0 = every step).
	PersistEvery int `json:"persist_every,omitempty"`
	// StorageFaultEvery faults every Nth snapshot write with a seeded
	// kind from StorageFaultKinds (0 = none; requires persist).
	StorageFaultEvery int `json:"storage_fault_every,omitempty"`
	// StorageFaultKinds is the storage-fault mix (torn, bitflip, stale,
	// missing); default all four.
	StorageFaultKinds []string `json:"storage_fault_kinds,omitempty"`
	TimeoutMS         int64    `json:"timeout_ms,omitempty"`
}

// ClusterResponse is the episode's result: the cluster.Result fields
// plus the derived start configuration and the cache envelope.
type ClusterResponse struct {
	Protocol       string                  `json:"protocol"`
	Transport      string                  `json:"transport"`
	Procs          int                     `json:"procs"`
	Seed           int64                   `json:"seed"`
	Start          []int                   `json:"start"`
	Steps          int                     `json:"steps"`
	Moves          int                     `json:"moves"`
	Converged      bool                    `json:"converged"`
	Final          []int                   `json:"final"`
	Stabilizations []cluster.Stabilization `json:"stabilizations,omitempty"`
	MovesPerNode   []int                   `json:"moves_per_node"`
	Links          []cluster.LinkStats     `json:"links,omitempty"`
	Events         []cluster.Event         `json:"events"`
	Storage        *store.Stats            `json:"storage,omitempty"`
	Cached         bool                    `json:"cached"`
	ElapsedUS      int64                   `json:"elapsed_us"`
}

func (r ClusterResponse) asCached(elapsed time.Duration) any {
	r.Cached = true
	r.ElapsedUS = elapsed.Microseconds()
	return r
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.recordRequest(kindCluster)
	var req ClusterRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeComputeError(w, err)
		return
	}
	if req.Steps == 0 {
		req.Steps = 10_000
	}
	if err := admitRing(req.Family, req.Procs, maxClusterProcs, &req.K); err != nil {
		s.writeComputeError(w, err)
		return
	}
	if req.Steps < 1 || req.Steps > maxClusterSteps {
		s.writeComputeError(w, badRequest("steps must be in [1, %d], got %d", maxClusterSteps, req.Steps))
		return
	}
	if req.Faults < 0 || req.Faults > req.Procs {
		s.writeComputeError(w, badRequest("faults must be in [0, procs], got %d", req.Faults))
		return
	}
	if req.SnapshotEvery < 0 {
		s.writeComputeError(w, badRequest("snapshot_every must be ≥ 0, got %d", req.SnapshotEvery))
		return
	}
	if req.PersistEvery < 0 || req.StorageFaultEvery < 0 {
		s.writeComputeError(w, badRequest("persist_every and storage_fault_every must be ≥ 0"))
		return
	}
	if req.StorageFaultEvery > 0 && !req.Persist {
		s.writeComputeError(w, badRequest("storage_fault_every needs persist"))
		return
	}
	storageKinds, err := parseStorageFaultKinds(req.StorageFaultKinds)
	if err != nil {
		s.writeComputeError(w, badRequest("storage_fault_kinds: %v", err))
		return
	}

	sched, err := cluster.ParseSchedule(req.Schedule)
	if err != nil {
		s.writeComputeError(w, badRequest("schedule: %v", err))
		return
	}
	if len(sched) > maxClusterSchedule {
		s.writeComputeError(w, badRequest("schedule has %d entries, above the limit of %d",
			len(sched), maxClusterSchedule))
		return
	}

	// An in-proc episode is a pure function of its parameters (the
	// stepped engine is deterministic), so the verdict cache applies.
	// The schedule is keyed in canonical form: parse-equivalent texts
	// share an entry.
	canon := make([]string, len(sched))
	for i, f := range sched {
		canon[i] = f.String()
	}
	key := cache.Key(kindCluster, req.Family,
		fmt.Sprint(req.Procs), fmt.Sprint(req.K), fmt.Sprint(req.Seed),
		fmt.Sprint(req.Faults), fmt.Sprint(req.Steps),
		strings.Join(canon, ";"),
		fmt.Sprint(req.SnapshotEvery), fmt.Sprint(req.RecordMoves),
		fmt.Sprint(req.Persist), fmt.Sprint(req.PersistEvery),
		fmt.Sprint(req.StorageFaultEvery), fmt.Sprint(storageKinds))
	if s.serveFromCache(w, key, started) {
		return
	}
	s.execute(w, r, kindCluster, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		// Built after the cache lookup, so the schedule is checked here.
		proto, err := sim.NewProtocol(req.Family, req.Procs, req.K)
		if err != nil {
			return nil, err
		}
		if err := cluster.ValidateSchedule(proto, sched); err != nil {
			return nil, badRequest("schedule: %v", err)
		}
		legit, err := sim.LegitimateConfig(proto)
		if err != nil {
			return nil, badRequest("family: %v", err)
		}
		start := sim.Corrupt(proto, legit, req.Faults, rand.New(rand.NewSource(req.Seed)))
		// Persistence is served from a per-request in-memory store: the
		// service never writes its own disk on behalf of a request.
		var st *store.Store
		if req.Persist {
			var sfs store.FS = store.NewMemFS()
			if req.StorageFaultEvery > 0 {
				sfs = store.NewInjector(sfs, req.Seed, store.Plan{Every: req.StorageFaultEvery, Kinds: storageKinds})
			}
			st = store.New(sfs)
		}
		res, err := cluster.Run(ctx, cluster.Options{
			Proto:          proto,
			Seed:           req.Seed,
			MaxSteps:       req.Steps,
			Schedule:       sched,
			SnapshotEvery:  req.SnapshotEvery,
			RecordMoves:    req.RecordMoves,
			StopWhenStable: true,
			Store:          st,
			PersistEvery:   req.PersistEvery,
		}, start)
		if err != nil {
			return nil, err
		}
		return ClusterResponse{
			Protocol:       res.Protocol,
			Transport:      res.Transport,
			Procs:          res.Procs,
			Seed:           res.Seed,
			Start:          start,
			Steps:          res.Steps,
			Moves:          res.Moves,
			Converged:      res.Converged,
			Final:          res.Final,
			Stabilizations: res.Stabilizations,
			MovesPerNode:   res.MovesPerNode,
			Links:          res.Links,
			Events:         res.Events,
			Storage:        res.Storage,
			ElapsedUS:      time.Since(started).Microseconds(),
		}, nil
	})
}

// parseStorageFaultKinds maps the request's storage-fault mix onto the
// store's kinds, defaulting to all four.
func parseStorageFaultKinds(kinds []string) ([]store.FaultKind, error) {
	if len(kinds) == 0 {
		return []store.FaultKind{store.FaultTorn, store.FaultBitFlip, store.FaultStale, store.FaultMissing}, nil
	}
	return store.ParseFaultKinds(kinds)
}
