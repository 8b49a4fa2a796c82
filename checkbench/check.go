package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
	"repro/internal/mc"
	"repro/internal/service"
	"repro/internal/service/cache"
	"repro/internal/system"
)

// The server limits checkd applies with no flags (service.Config's
// defaults), mirrored here so direct calls decide exactly what the
// server decides.
const (
	serverMaxStates = 1 << 20
	serverBudget    = 50_000_000
)

// timer runs one call into a layer, timing it under the layer's name.
type timer func(layer string, fn func())

// untimed runs fn without recording anything.
func untimed(_ string, fn func()) { fn() }

// callStats collects the work counts of the cache-miss path.
type callStats struct {
	states, transitions, gas []float64
	compiled                 []*gcl.Program // enumerated programs, for the allocation count
}

func (c *callStats) enumerated(p *gcl.Program, sys *system.System) {
	if c == nil {
		return
	}
	c.states = append(c.states, float64(sys.NumStates()))
	c.transitions = append(c.transitions, float64(sys.NumTransitions()))
	if len(c.compiled) < allocSamples {
		c.compiled = append(c.compiled, p)
	}
}

func (c *callStats) spent(g *mc.Gas) {
	if c != nil {
		c.gas = append(c.gas, float64(g.Spent()))
	}
}

// admitted is a request after the handler's steps up to the cache
// lookup: decoded, parsed, checked and fingerprinted.
type admitted struct {
	kind  string
	progs []*gcl.Program // one, or concrete and abstract for refine
	fps   []string
	key   string
}

// admit repeats, by direct calls, what the service handler does before
// it consults the verdict cache.
func admit(req request, t timer) (*admitted, error) {
	var sources []string
	var err error
	t("service.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(req.body))
		dec.DisallowUnknownFields()
		switch req.kind {
		case service.KindRefine:
			var r service.RefineRequest
			err = dec.Decode(&r)
			sources = []string{r.Concrete, r.Abstract}
		case service.KindLint:
			var r service.LintRequest
			err = dec.Decode(&r)
			sources = []string{r.Source}
		default:
			var r service.SelfStabRequest
			err = dec.Decode(&r)
			sources = []string{r.Source}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	a := &admitted{kind: req.kind}
	for _, src := range sources {
		var prog *gcl.Program
		t("gcl.parse", func() { prog, err = gcl.Parse(src) })
		if err != nil {
			return nil, err
		}
		t("gcl.check", func() {
			if err = gcl.Check(prog); err == nil && gcl.SpaceOf(prog).Size() > serverMaxStates {
				err = fmt.Errorf("state space above %d states", serverMaxStates)
			}
		})
		if err != nil {
			return nil, err
		}
		a.progs = append(a.progs, prog)
	}
	t("gcl.fingerprint", func() {
		for _, p := range a.progs {
			a.fps = append(a.fps, gcl.Fingerprint(p))
		}
		parts := a.fps
		if req.kind == service.KindLint {
			parts = append(parts[:len(parts):len(parts)], analysis.Version())
		}
		a.key = cache.Key(req.kind, parts...)
	})
	return a, nil
}

// verdictOf renders a core verdict the way the service does.
func verdictOf(v core.Verdict, sys *system.System) service.Verdict {
	out := service.Verdict{Holds: v.Holds, Relation: v.Relation, Reason: v.Reason}
	for _, st := range v.Witness {
		out.Witness = append(out.Witness, sys.StateString(st))
	}
	for _, st := range v.WitnessLoop {
		out.WitnessLoop = append(out.WitnessLoop, sys.StateString(st))
	}
	return out
}

// compute repeats the handler's cache-miss path by direct calls and
// returns the response value the server caches.
func compute(a *admitted, t timer, st *callStats) (any, error) {
	var err error
	enumerate := func(name string, p *gcl.Program) *gcl.Compiled {
		var c *gcl.Compiled
		t("gcl.enumerate", func() { c, err = gcl.CompileProgram(name, p) })
		if err == nil {
			st.enumerated(p, c.System)
		}
		return c
	}
	g := mc.NewGas(context.Background(), serverBudget)
	switch a.kind {
	case service.KindSelfStab:
		c := enumerate("program", a.progs[0])
		if err != nil {
			return nil, err
		}
		var rep *core.StabilizationReport
		t("core.selfstab", func() { rep, err = core.SelfStabilizingGas(g, c.System) })
		if err != nil {
			return nil, err
		}
		st.spent(g)
		return service.SelfStabResponse{
			Program:          a.fps[0],
			States:           c.System.NumStates(),
			Verdict:          verdictOf(rep.Verdict, c.System),
			LegitimateStates: len(rep.Legitimate),
		}, nil
	case service.KindLint:
		var res *analysis.Result
		t("analysis.lint", func() {
			res, err = analysis.Analyze(a.progs[0], analysis.Options{Exact: true, ExactStateLimit: serverMaxStates, Gas: g})
		})
		if err != nil {
			return nil, err
		}
		st.spent(g)
		diags := res.Diags
		if diags == nil {
			diags = []analysis.Diag{}
		}
		return service.LintResponse{
			Program:         a.fps[0],
			States:          res.States,
			Exact:           res.Exact,
			AnalyzerVersion: analysis.Version(),
			Errors:          analysis.ErrorCount(diags),
			Diags:           diags,
		}, nil
	case service.KindRefine:
		cc := enumerate("concrete", a.progs[0])
		if err != nil {
			return nil, err
		}
		ca := enumerate("abstract", a.progs[1])
		if err != nil {
			return nil, err
		}
		if !cc.Space.SameShape(ca.Space) {
			return nil, fmt.Errorf("programs declare different state spaces")
		}
		c, ab := cc.System, ca.System
		var vInit, vEvery core.Verdict
		var vConv *core.ConvergenceReport
		var vStab *core.StabilizationReport
		steps := []struct {
			layer string
			run   func() error
		}{
			{"core.refine_init", func() (e error) { vInit, e = core.RefinementInitGas(g, c, ab, nil); return }},
			{"core.everywhere", func() (e error) { vEvery, e = core.EverywhereRefinementGas(g, c, ab, nil); return }},
			{"core.convergence", func() (e error) { vConv, e = core.ConvergenceRefinementGas(g, c, ab, nil); return }},
			{"core.stabilizing", func() (e error) { vStab, e = core.StabilizingGas(g, c, ab, nil); return }},
		}
		for _, s := range steps {
			t(s.layer, func() { err = s.run() })
			if err != nil {
				return nil, err
			}
		}
		st.spent(g)
		return service.RefineResponse{
			Concrete:       a.fps[0],
			Abstract:       a.fps[1],
			States:         c.NumStates(),
			RefinementInit: verdictOf(vInit, c),
			Everywhere:     verdictOf(vEvery, c),
			Convergence:    verdictOf(vConv.Verdict, c),
			Stabilizing:    verdictOf(vStab.Verdict, c),
			Holds:          vInit.Holds && vEvery.Holds && vConv.Holds && vStab.Holds,
		}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", a.kind)
}

// signature hashes the verdict content of a response: everything but the
// cached flag and the elapsed time, which vary between equal answers.
func signature(resp any) uint64 {
	var s string
	switch r := resp.(type) {
	case service.SelfStabResponse:
		s = fmt.Sprintf("%s|%d|%d|%+v", r.Program, r.States, r.LegitimateStates, r.Verdict)
	case service.LintResponse:
		d := make([]string, len(r.Diags))
		for i, x := range r.Diags {
			d[i] = x.String()
		}
		s = fmt.Sprintf("%s|%d|%t|%s|%d|%s", r.Program, r.States, r.Exact, r.AnalyzerVersion, r.Errors, strings.Join(d, ";"))
	case service.RefineResponse:
		s = fmt.Sprintf("%s|%s|%d|%t|%+v|%+v|%+v|%+v", r.Concrete, r.Abstract, r.States, r.Holds,
			r.RefinementInit, r.Everywhere, r.Convergence, r.Stabilizing)
	default:
		panic(fmt.Sprintf("signature of %T", resp))
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// responseSignature decodes a 200 response body of the given kind and
// returns its signature and cached flag.
func responseSignature(kind string, body []byte) (sig uint64, cached bool, err error) {
	switch kind {
	case service.KindSelfStab:
		var r service.SelfStabResponse
		if err = json.Unmarshal(body, &r); err == nil {
			return signature(r), r.Cached, nil
		}
	case service.KindLint:
		var r service.LintResponse
		if err = json.Unmarshal(body, &r); err == nil {
			return signature(r), r.Cached, nil
		}
	case service.KindRefine:
		var r service.RefineResponse
		if err = json.Unmarshal(body, &r); err == nil {
			return signature(r), r.Cached, nil
		}
	default:
		err = fmt.Errorf("unknown kind %q", kind)
	}
	return 0, false, err
}

// oracle computes, once per (kind, program), the signature a correct
// server answers with, by calling gcl and core / analysis directly.
type oracle struct {
	mu   sync.Mutex
	memo map[string]oracleEntry
}

type oracleEntry struct {
	sig  uint64
	resp any
	err  error
}

func newOracle() *oracle { return &oracle{memo: map[string]oracleEntry{}} }

// entry returns the memoized direct-call result for req.
func (o *oracle) entry(req request) oracleEntry {
	id := req.kind + "|" + req.name
	o.mu.Lock()
	e, ok := o.memo[id]
	o.mu.Unlock()
	if ok {
		return e
	}
	req = req.whole()
	a, err := admit(req, untimed)
	if err == nil {
		e.resp, err = compute(a, untimed, nil)
	}
	if err != nil {
		e.err = fmt.Errorf("%s %s: %w", req.kind, req.name, err)
	} else {
		e.sig = signature(e.resp)
	}
	o.mu.Lock()
	o.memo[id] = e
	o.mu.Unlock()
	return e
}

func (o *oracle) expect(req request) (uint64, error) {
	e := o.entry(req)
	return e.sig, e.err
}
