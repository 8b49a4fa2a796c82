package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
	"repro/internal/mc"
	"repro/internal/service/cache"
	"repro/internal/sim"
	"repro/internal/system"
)

const (
	kindSelfStab = "selfstab"
	kindRefine   = "refine"
	kindRingsim  = "ringsim"
	kindLint     = "lint"

	// maxBodyBytes bounds request bodies; GCL programs are text and the
	// state-space bound rejects big programs anyway.
	maxBodyBytes = 1 << 20
)

// Verdict is the JSON form of one relation check, with the witness
// rendered in the concrete system's state vocabulary.
type Verdict struct {
	Holds       bool     `json:"holds"`
	Relation    string   `json:"relation"`
	Reason      string   `json:"reason"`
	Witness     []string `json:"witness,omitempty"`
	WitnessLoop []string `json:"witness_loop,omitempty"`
}

func verdictJSON(v core.Verdict, sys *system.System) Verdict {
	out := Verdict{Holds: v.Holds, Relation: v.Relation, Reason: v.Reason}
	for _, st := range v.Witness {
		out.Witness = append(out.Witness, sys.StateString(st))
	}
	for _, st := range v.WitnessLoop {
		out.WitnessLoop = append(out.WitnessLoop, sys.StateString(st))
	}
	return out
}

// SelfStabRequest is the body of POST /v1/selfstab.
type SelfStabRequest struct {
	// Source is the GCL program text.
	Source string `json:"source"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Budget overrides the server's default step budget, which meters
	// the enumeration and the decision procedures alike.
	Budget int64 `json:"budget,omitempty"`
}

// SelfStabResponse is the battery gclc selfstab prints, structured.
type SelfStabResponse struct {
	// Program is the content address of the canonicalized program.
	Program string  `json:"program"`
	States  int     `json:"states"`
	Verdict Verdict `json:"verdict"`
	// LegitimateStates counts states from which every computation tracks
	// the program's own from-init behavior forever.
	LegitimateStates int   `json:"legitimate_states"`
	Cached           bool  `json:"cached"`
	ElapsedUS        int64 `json:"elapsed_us"`
}

func (r SelfStabResponse) asCached(elapsed time.Duration) any {
	r.Cached = true
	r.ElapsedUS = elapsed.Microseconds()
	return r
}

// RefineRequest is the body of POST /v1/refine: a concrete and an
// abstract program over the same declared state space.
type RefineRequest struct {
	Concrete  string `json:"concrete"`
	Abstract  string `json:"abstract"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Budget    int64  `json:"budget,omitempty"`
}

// RefineResponse is the four-verdict battery gclc refine prints.
type RefineResponse struct {
	Concrete string `json:"concrete"`
	Abstract string `json:"abstract"`
	States   int    `json:"states"`
	// The battery, in gclc refine's order.
	RefinementInit Verdict `json:"refinement_init"`
	Everywhere     Verdict `json:"everywhere"`
	Convergence    Verdict `json:"convergence"`
	Stabilizing    Verdict `json:"stabilizing"`
	// Holds is the conjunction of the four verdicts.
	Holds     bool  `json:"holds"`
	Cached    bool  `json:"cached"`
	ElapsedUS int64 `json:"elapsed_us"`
}

func (r RefineResponse) asCached(elapsed time.Duration) any {
	r.Cached = true
	r.ElapsedUS = elapsed.Microseconds()
	return r
}

// LintRequest is the body of POST /v1/lint (alias /lint): one GCL
// program to statically analyze.
type LintRequest struct {
	// Source is the GCL program text.
	Source string `json:"source"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Budget overrides the server's default step budget for the exact
	// enumeration tier. An exhausted budget is not an error: the
	// response simply reports exact = false and approx-confidence
	// diagnostics.
	Budget int64 `json:"budget,omitempty"`
}

// LintResponse mirrors `gclc lint -json`: the diagnostics of the
// analyzer registry for one program.
type LintResponse struct {
	// Program is the content address of the canonicalized program.
	Program string `json:"program"`
	States  int    `json:"states"`
	// Exact reports whether the enumeration tier completed.
	Exact bool `json:"exact"`
	// AnalyzerVersion identifies the analyzer set that produced the
	// diagnostics (also part of the verdict-cache key).
	AnalyzerVersion string `json:"analyzer_version"`
	// Errors counts error-severity diagnostics.
	Errors    int             `json:"errors"`
	Diags     []analysis.Diag `json:"diags"`
	Cached    bool            `json:"cached"`
	ElapsedUS int64           `json:"elapsed_us"`
}

func (r LintResponse) asCached(elapsed time.Duration) any {
	r.Cached = true
	r.ElapsedUS = elapsed.Microseconds()
	return r
}

// RingsimRequest is the body of POST /v1/ringsim: a protocol family and
// simulation parameters, mirroring cmd/ringsim's flags.
type RingsimRequest struct {
	Family    string `json:"family"`           // dijkstra3 | dijkstra4 | kstate | newthree
	Procs     int    `json:"procs"`            // number of processes (≥ 3)
	K         int    `json:"k,omitempty"`      // kstate only; default procs
	Daemon    string `json:"daemon,omitempty"` // random | roundrobin | greedy (default random)
	Seed      int64  `json:"seed,omitempty"`
	Faults    int    `json:"faults,omitempty"` // corrupted registers per run (default 3)
	Steps     int    `json:"steps,omitempty"`  // step budget per run (default 100000)
	Runs      int    `json:"runs,omitempty"`   // runs to aggregate (default 10)
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// RingsimResponse aggregates convergence statistics.
type RingsimResponse struct {
	Protocol  string  `json:"protocol"`
	Daemon    string  `json:"daemon"`
	Runs      int     `json:"runs"`
	Converged int     `json:"converged"`
	MeanSteps float64 `json:"mean_steps"`
	MaxSteps  int     `json:"max_steps"`
	Faults    int     `json:"faults"`
	Cached    bool    `json:"cached"`
	ElapsedUS int64   `json:"elapsed_us"`
}

func (r RingsimResponse) asCached(elapsed time.Duration) any {
	r.Cached = true
	r.ElapsedUS = elapsed.Microseconds()
	return r
}

// decodeJSON reads a bounded JSON body, rejecting unknown fields so typos
// in requests fail loudly instead of silently using defaults.
func decodeJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// parseProgram parses and admission-checks one GCL source: syntax,
// semantic checks, and the declared state-space bound — everything cheap
// enough to do on the request goroutine, before a worker is committed.
func (s *Server) parseProgram(field, src string) (*gcl.Program, error) {
	if src == "" {
		return nil, badRequest("missing %q: expected GCL program text", field)
	}
	prog, err := gcl.Parse(src)
	if err != nil {
		return nil, badRequest("%s: %v", field, err)
	}
	if err := gcl.Check(prog); err != nil {
		return nil, badRequest("%s: %v", field, err)
	}
	// Bound the size from the declarations: building the space would
	// panic on one past 2^62 states.
	if size := gcl.StateBound(prog, 1<<62); size > s.cfg.MaxStates {
		count := fmt.Sprint(size)
		if size > 1<<62 {
			count = "more than 2^62"
		}
		return nil, badRequest("%s: state space has %s states, above the server's limit of %d",
			field, count, s.cfg.MaxStates)
	}
	return prog, nil
}

// enumerationError classifies a failed enumeration: a tripped meter
// (deadline or budget) passes through for writeComputeError to map to
// 504 or 422; anything else is a runtime fault of the submitted program.
func enumerationError(g *mc.Gas, field string, err error) error {
	if g.Err() != nil {
		return err
	}
	return badRequest("%s: %v", field, err)
}

func (s *Server) handleSelfStab(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.recordRequest(kindSelfStab)
	var req SelfStabRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeComputeError(w, err)
		return
	}
	prog, err := s.parseProgram("source", req.Source)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	fp := gcl.Fingerprint(prog)
	key := cache.Key(kindSelfStab, fp)
	if s.serveFromCache(w, key, started) {
		return
	}
	budget := s.resolveBudget(req.Budget)
	s.execute(w, r, kindSelfStab, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		g := mc.NewGas(ctx, budget)
		c, err := gcl.CompileProgramGas(g, "program", prog)
		if err != nil {
			return nil, enumerationError(g, "source", err)
		}
		// The job alone holds the system, and the response below copies
		// out all it needs, so its rows go back to the pool on return.
		defer c.System.Release()
		rep, err := core.SelfStabilizingGas(g, c.System)
		if err != nil {
			return nil, err
		}
		return SelfStabResponse{
			Program:          fp,
			States:           c.System.NumStates(),
			Verdict:          verdictJSON(rep.Verdict, c.System),
			LegitimateStates: len(rep.Legitimate),
			ElapsedUS:        time.Since(started).Microseconds(),
		}, nil
	})
}

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.recordRequest(kindRefine)
	var req RefineRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeComputeError(w, err)
		return
	}
	concrete, err := s.parseProgram("concrete", req.Concrete)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	abstract, err := s.parseProgram("abstract", req.Abstract)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	// Refinement compares two systems over one space. A mismatch is the
	// client's error and is known from the declarations alone, so it is
	// refused before either program is enumerated.
	if !gcl.SameShape(concrete, abstract) {
		s.writeComputeError(w, badRequest("programs declare different state spaces; refine requires a shared space"))
		return
	}
	fpC, fpA := gcl.Fingerprint(concrete), gcl.Fingerprint(abstract)
	key := cache.Key(kindRefine, fpC, fpA)
	if s.serveFromCache(w, key, started) {
		return
	}
	budget := s.resolveBudget(req.Budget)
	s.execute(w, r, kindRefine, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		g := mc.NewGas(ctx, budget)
		cc, err := gcl.CompileProgramGas(g, "concrete", concrete)
		if err != nil {
			return nil, enumerationError(g, "concrete", err)
		}
		defer cc.System.Release()
		ca, err := gcl.CompileProgramGas(g, "abstract", abstract)
		if err != nil {
			return nil, enumerationError(g, "abstract", err)
		}
		defer ca.System.Release()
		vInit, err := core.RefinementInitGas(g, cc.System, ca.System, nil)
		if err != nil {
			return nil, err
		}
		vEvery, err := core.EverywhereRefinementGas(g, cc.System, ca.System, nil)
		if err != nil {
			return nil, err
		}
		vConv, err := core.ConvergenceRefinementGas(g, cc.System, ca.System, nil)
		if err != nil {
			return nil, err
		}
		vStab, err := core.StabilizingGas(g, cc.System, ca.System, nil)
		if err != nil {
			return nil, err
		}
		resp := RefineResponse{
			Concrete:       fpC,
			Abstract:       fpA,
			States:         cc.System.NumStates(),
			RefinementInit: verdictJSON(vInit, cc.System),
			Everywhere:     verdictJSON(vEvery, cc.System),
			Convergence:    verdictJSON(vConv.Verdict, cc.System),
			Stabilizing:    verdictJSON(vStab.Verdict, cc.System),
			ElapsedUS:      time.Since(started).Microseconds(),
		}
		resp.Holds = vInit.Holds && vEvery.Holds && vConv.Holds && vStab.Holds
		return resp, nil
	})
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.recordRequest(kindLint)
	var req LintRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeComputeError(w, err)
		return
	}
	prog, err := s.parseProgram("source", req.Source)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	fp := gcl.Fingerprint(prog)
	// Unlike the verdict endpoints, lint results depend on the analyzer
	// set, so the cache key carries its version: upgrading the engine
	// naturally invalidates stale entries.
	key := cache.Key(kindLint, fp, analysis.Version())
	if s.serveFromCache(w, key, started) {
		return
	}
	budget := s.resolveBudget(req.Budget)
	s.execute(w, r, kindLint, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		// parseProgram has checked prog.
		res := analysis.AnalyzeChecked(prog, analysis.Options{
			Exact:           true,
			ExactStateLimit: s.cfg.MaxStates,
			Gas:             mc.NewGas(ctx, budget),
		})
		diags := res.Diags
		if diags == nil {
			diags = []analysis.Diag{} // a clean program lints to [], not null
		}
		return LintResponse{
			Program:         fp,
			States:          res.States,
			Exact:           res.Exact,
			AnalyzerVersion: analysis.Version(),
			Errors:          analysis.ErrorCount(diags),
			Diags:           diags,
			ElapsedUS:       time.Since(started).Microseconds(),
		}, nil
	})
}

// ringsim admission bounds: a request is a (runs × steps) workload, so
// both factors are capped to keep one request from monopolizing a worker
// beyond what its deadline would cut off anyway.
const (
	maxRingsimProcs = 10_000
	maxRingsimRuns  = 100_000
	maxRingsimSteps = 10_000_000
)

// admitRing checks a ring request's family, procs and k at admission,
// before anything is built, defaulting k to procs.
func admitRing(family string, procs, maxProcs int, k *int) error {
	if procs < 3 || procs > maxProcs {
		return badRequest("procs must be in [3, %d], got %d", maxProcs, procs)
	}
	if *k == 0 {
		*k = procs
	}
	if *k < 1 {
		return badRequest("k must be ≥ 1, got %d", *k)
	}
	if err := sim.CheckFamily(family, procs, *k); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

func (s *Server) handleRingsim(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.recordRequest(kindRingsim)
	var req RingsimRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeComputeError(w, err)
		return
	}
	if req.Daemon == "" {
		req.Daemon = "random"
	}
	if req.Faults == 0 {
		req.Faults = 3
	}
	if req.Steps == 0 {
		req.Steps = 100_000
	}
	if req.Runs == 0 {
		req.Runs = 10
	}
	if err := admitRing(req.Family, req.Procs, maxRingsimProcs, &req.K); err != nil {
		s.writeComputeError(w, err)
		return
	}
	if req.Runs < 1 || req.Runs > maxRingsimRuns {
		s.writeComputeError(w, badRequest("runs must be in [1, %d], got %d", maxRingsimRuns, req.Runs))
		return
	}
	if req.Steps < 1 || req.Steps > maxRingsimSteps {
		s.writeComputeError(w, badRequest("steps must be in [1, %d], got %d", maxRingsimSteps, req.Steps))
		return
	}
	if req.Faults < 0 || req.Faults > req.Procs {
		s.writeComputeError(w, badRequest("faults must be in [0, procs], got %d", req.Faults))
		return
	}

	if !slices.Contains([]string{"random", "roundrobin", "greedy"}, req.Daemon) {
		s.writeComputeError(w, badRequest("unknown daemon %q (want random | roundrobin | greedy)", req.Daemon))
		return
	}

	key := cache.Key(kindRingsim, req.Family, req.Daemon,
		fmt.Sprint(req.Procs), fmt.Sprint(req.K), fmt.Sprint(req.Seed),
		fmt.Sprint(req.Faults), fmt.Sprint(req.Steps), fmt.Sprint(req.Runs))
	if s.serveFromCache(w, key, started) {
		return
	}
	s.execute(w, r, kindRingsim, key, req.TimeoutMS, func(ctx context.Context) (any, error) {
		// Built after the cache lookup: a hit needs no protocol.
		proto, err := sim.NewProtocol(req.Family, req.Procs, req.K)
		if err != nil {
			return nil, err
		}
		mkDaemon := func(run int) sim.Daemon {
			switch req.Daemon {
			case "roundrobin":
				return sim.NewRoundRobinDaemon(proto.Procs())
			case "greedy":
				return sim.NewGreedyDaemon(proto)
			}
			return sim.NewRandomDaemon(req.Seed + int64(run))
		}
		stats, err := sim.MeasureConvergenceCtx(ctx, proto, mkDaemon,
			req.Runs, req.Faults, req.Steps, req.Seed)
		if err != nil {
			return nil, err
		}
		return RingsimResponse{
			Protocol:  proto.Name(),
			Daemon:    req.Daemon,
			Runs:      stats.Runs,
			Converged: stats.Converged,
			MeanSteps: stats.MeanSteps,
			MaxSteps:  stats.MaxSteps,
			Faults:    req.Faults,
			ElapsedUS: time.Since(started).Microseconds(),
		}, nil
	})
}
