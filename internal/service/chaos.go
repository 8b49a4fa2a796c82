package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/service/cache"
	"repro/internal/sim"
)

const kindChaos = "chaos"

// chaos admission bounds. A campaign multiplies the cluster cost by its
// episode count, so both axes and their product are capped.
const (
	maxChaosEpisodes   = 256
	maxChaosSteps      = 100_000
	maxChaosTotalSteps = 5_000_000
	maxChaosFaults     = 64
)

// ChaosRequest is the body of POST /v1/chaos: one chaos campaign over
// the deterministic in-proc transport, mirroring `ringsim chaos`. The
// service runs stepped campaigns only — they are pure functions of the
// request, so the verdict cache applies; free-running TCP campaigns
// belong to the CLI.
type ChaosRequest struct {
	Family string `json:"family"`      // dijkstra3 | dijkstra4 | kstate | newthree
	Procs  int    `json:"procs"`       // number of processes (≥ 3)
	K      int    `json:"k,omitempty"` // kstate only; default procs
	Seed   int64  `json:"seed,omitempty"`
	// Episodes is the number of episodes (default 10).
	Episodes int `json:"episodes,omitempty"`
	// Steps is the per-episode step budget (default 5000); an episode
	// that has not re-stabilized by then violates the SLO.
	Steps int `json:"steps,omitempty"`
	// Kinds is the fault-kind mix (default corrupt, restart, partition).
	Kinds []string `json:"kinds,omitempty"`
	// Faults is the number of faults per episode (default 4).
	Faults int `json:"faults,omitempty"`
	// Gap is the number of steps between consecutive faults (default 50).
	Gap int `json:"gap,omitempty"`
	// Start is the step of the first fault (default 30).
	Start int `json:"start,omitempty"`
	// CutDuration is how long partitions/isolations last (default 40).
	CutDuration int `json:"cut_duration,omitempty"`
	// RecoverySteps and MaxTokens are the SLO (0 = unbounded/unchecked).
	RecoverySteps int `json:"recovery_steps,omitempty"`
	MaxTokens     int `json:"max_tokens,omitempty"`
	// RefreshEvery triggers a periodic anti-entropy round (0 = only on
	// partition heals).
	RefreshEvery int `json:"refresh_every,omitempty"`
	// Persist gives each episode a fresh in-memory snapshot store (never
	// the server's disk), so crash faults recover from persisted state.
	Persist bool `json:"persist,omitempty"`
	// PersistEvery is the snapshot interval in steps (≤ 0 = every step).
	PersistEvery int `json:"persist_every,omitempty"`
	// StorageFaultEvery faults every Nth snapshot write (0 = none;
	// requires persist); StorageFaultKinds is the mix, default all four.
	StorageFaultEvery int      `json:"storage_fault_every,omitempty"`
	StorageFaultKinds []string `json:"storage_fault_kinds,omitempty"`
	TimeoutMS         int64    `json:"timeout_ms,omitempty"`
}

// ChaosResponse is the campaign report plus the cache envelope.
type ChaosResponse struct {
	chaos.Report
	Cached    bool  `json:"cached"`
	ElapsedUS int64 `json:"elapsed_us"`
}

func (r ChaosResponse) asCached(elapsed time.Duration) any {
	r.Cached = true
	r.ElapsedUS = elapsed.Microseconds()
	return r
}

func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.recordRequest(kindChaos)
	var req ChaosRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeComputeError(w, err)
		return
	}
	if req.Episodes == 0 {
		req.Episodes = 10
	}
	if req.Steps == 0 {
		req.Steps = 5000
	}
	if len(req.Kinds) == 0 {
		req.Kinds = []string{"corrupt", "restart", "partition"}
	}
	if req.Faults == 0 {
		req.Faults = 4
	}
	if req.Gap == 0 {
		req.Gap = 50
	}
	if req.Start == 0 {
		req.Start = 30
	}
	if req.CutDuration == 0 {
		req.CutDuration = 40
	}
	if err := admitRing(req.Family, req.Procs, maxClusterProcs, &req.K); err != nil {
		s.writeComputeError(w, err)
		return
	}
	if req.Episodes < 1 || req.Episodes > maxChaosEpisodes {
		s.writeComputeError(w, badRequest("episodes must be in [1, %d], got %d", maxChaosEpisodes, req.Episodes))
		return
	}
	if req.Steps < 1 || req.Steps > maxChaosSteps {
		s.writeComputeError(w, badRequest("steps must be in [1, %d], got %d", maxChaosSteps, req.Steps))
		return
	}
	if total := req.Episodes * req.Steps; total > maxChaosTotalSteps {
		s.writeComputeError(w, badRequest("episodes*steps = %d exceeds the campaign budget of %d",
			total, maxChaosTotalSteps))
		return
	}
	if req.Faults < 1 || req.Faults > maxChaosFaults {
		s.writeComputeError(w, badRequest("faults must be in [1, %d], got %d", maxChaosFaults, req.Faults))
		return
	}
	if req.RecoverySteps < 0 || req.MaxTokens < 0 || req.RefreshEvery < 0 {
		s.writeComputeError(w, badRequest("recovery_steps, max_tokens, and refresh_every must be ≥ 0"))
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

	kinds := make([]cluster.FaultKind, len(req.Kinds))
	for i, k := range req.Kinds {
		kinds[i] = cluster.FaultKind(k)
	}
	opts := chaos.Options{
		Seed:     req.Seed,
		Episodes: req.Episodes,
		MaxSteps: req.Steps,
		Template: chaos.Template{
			Kinds:       kinds,
			Faults:      req.Faults,
			Gap:         req.Gap,
			Start:       req.Start,
			CutDuration: req.CutDuration,
		},
		SLO:          chaos.SLO{RecoverySteps: req.RecoverySteps, MaxTokens: req.MaxTokens},
		RefreshEvery: req.RefreshEvery,
		Persist:      req.Persist,
		PersistEvery: req.PersistEvery,
	}
	if req.StorageFaultEvery > 0 {
		opts.StorageFaultEvery = req.StorageFaultEvery
		opts.StorageFaultKinds = storageKinds
	}
	if err := opts.Template.Validate(); err != nil {
		s.writeComputeError(w, badRequest("template: %v", err))
		return
	}

	// A stepped campaign is a pure function of its parameters, so the
	// verdict cache applies; the template's canonical rendering keys the
	// schedule axes.
	key := cache.Key(kindChaos, req.Family,
		fmt.Sprint(req.Procs), fmt.Sprint(req.K), fmt.Sprint(req.Seed),
		fmt.Sprint(req.Episodes), fmt.Sprint(req.Steps),
		opts.Template.String(),
		fmt.Sprint(req.RecoverySteps), fmt.Sprint(req.MaxTokens), fmt.Sprint(req.RefreshEvery),
		fmt.Sprint(req.Persist), fmt.Sprint(req.PersistEvery),
		fmt.Sprint(req.StorageFaultEvery), fmt.Sprint(storageKinds))
	if s.serveFromCache(w, key, started) {
		return
	}
	s.execute(w, r, kindChaos, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		// Built after the cache lookup: a hit needs no protocol.
		proto, err := sim.NewProtocol(req.Family, req.Procs, req.K)
		if err != nil {
			return nil, err
		}
		run := opts
		run.Proto = proto
		rep, err := chaos.Run(ctx, run)
		if err != nil {
			return nil, err
		}
		// The campaign ran to completion: count and journal its
		// summary even if the response itself misses its deadline.
		s.recordCampaign(rep)
		return ChaosResponse{
			Report:    *rep,
			ElapsedUS: time.Since(started).Microseconds(),
		}, nil
	})
}
