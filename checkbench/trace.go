package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/gcl"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/service/cache"
)

// The traced run replays each request of the workload, right after the
// server answered it, through the public calls the handler makes, one
// span per call under a per-request root span. Layer self-times are
// grouped by request class (kind, whether the server answered from its
// cache, whether the owner replica answered), so that for every class
//
//	end-to-end p50 = Σ layer self-time p50s + http.unattributed_us
//
// where http.unattributed_us is whatever the calls do not account for:
// HTTP, loopback, queueing, the forward hop and the handler's glue.

// span is one call into a layer. Times are offsets from the trace epoch.
type span struct {
	name       string
	parent     int // index of the parent span, -1 for the root
	start, end time.Duration
}

// reqTrace holds the spans of one request; they share its id.
type reqTrace struct {
	id    string
	epoch time.Time
	spans []span
}

func newReqTrace(id string) *reqTrace { return &reqTrace{id: id, epoch: time.Now()} }

func (t *reqTrace) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *reqTrace) finish(i int) { t.spans[i].end = time.Since(t.epoch) }

// under returns a timer recording each call as a child of parent.
func (t *reqTrace) under(parent int) timer {
	return func(layer string, fn func()) {
		i := t.begin(layer, parent)
		fn()
		t.finish(i)
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		var covered time.Duration
		cur := s.start // covered up to here
		for _, k := range kids {
			lo, hi := max(k.start, cur), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// layerOrder lists the timed layers in the order a request crosses them.
var layerOrder = []string{
	"fleet.route", "service.decode", "gcl.parse", "gcl.check", "gcl.fingerprint", "cache.lookup",
	"gcl.enumerate", "core.selfstab", "core.refine_init", "core.everywhere", "core.convergence",
	"core.stabilizing", "analysis.lint", "service.encode", "journal.append",
}

// classStats gathers one request class's samples, in microseconds: the
// end-to-end latencies and, per layer, each request's summed self time.
type classStats struct {
	e2e    []float64
	layers map[string][]float64
}

// tracer is one client's share of the traced run.
type tracer struct {
	workload string
	jr       *journal.Journal // stands in for a replica's journal on MemBackend
	lookup   *cache.Cache     // stands in for the server's verdict cache
	oracle   *oracle
	classes  map[string]*classStats
	calls    callStats
	err      error
}

// class names a request's class from what the server answered.
func class(o *outcome) string {
	c := o.req.kind + "/miss"
	if o.cached {
		c = o.req.kind + "/hit"
	}
	if o.forwarded {
		c += "/owner"
	}
	return c
}

// replay traces one answered request. Only 200s are replayed, and only
// those whose verdict the replay reproduces are recorded; verify counts
// the others as failures.
func (tr *tracer) replay(o *outcome) {
	if o.status != 200 || o.badBody || tr.err != nil {
		return
	}
	rt := newReqTrace(o.id)
	root := rt.begin("request", -1)
	resp, err := tr.replayCalls(o, rt.under(root))
	if err != nil {
		tr.err = fmt.Errorf("replaying %s %s: %w", o.req.kind, o.req.name, err)
		return
	}
	rt.finish(root)
	if signature(resp) != o.sig {
		return
	}

	cs := tr.classes[class(o)]
	if cs == nil {
		cs = &classStats{layers: map[string][]float64{}}
		tr.classes[class(o)] = cs
	}
	cs.e2e = append(cs.e2e, us(o.lat))
	self := selfTimes(rt.spans)
	sum := map[string]float64{}
	for i, s := range rt.spans[1:] {
		sum[s.name] += us(self[i+1])
	}
	for name, v := range sum {
		cs.layers[name] = append(cs.layers[name], v)
	}
}

// replayCalls makes the calls the server made for o: the router's parse
// (fleet), the handler's admission steps and cache lookup, and either the
// cache-miss path (enumeration, decision procedure, encode, and the
// durable verdict append on a journaled fleet) or the cached encode. It
// returns the verdict the replay arrived at.
func (tr *tracer) replayCalls(o *outcome, t timer) (any, error) {
	req := o.req
	var err error
	if isFleet(tr.workload) {
		if t("fleet.route", func() { _, err = service.Route(req.kind, req.body) }); err != nil {
			return nil, err
		}
	}
	a, err := admit(req, t)
	if err != nil {
		return nil, err
	}
	var resp any
	var hit bool
	t("cache.lookup", func() { resp, hit = tr.lookup.Get(a.key) })
	if o.cached {
		if !hit {
			e := tr.oracle.entry(req)
			if e.err != nil {
				return nil, e.err
			}
			resp = e.resp
			tr.lookup.Put(a.key, resp)
		}
		cached := asCached(resp)
		t("service.encode", func() { _, err = json.Marshal(cached) })
		return resp, err
	}
	if resp, err = compute(a, t, &tr.calls); err != nil {
		return nil, err
	}
	var raw []byte
	if t("service.encode", func() { raw, err = json.Marshal(resp) }); err != nil {
		return nil, err
	}
	if isFleet(tr.workload) {
		if t("journal.append", func() { _, err = tr.jr.Append(journal.KindVerdict, raw) }); err != nil {
			return nil, err
		}
	}
	tr.lookup.Put(a.key, resp)
	return resp, nil
}

// asCached is the response value a cache hit encodes.
func asCached(resp any) any {
	switch r := resp.(type) {
	case service.SelfStabResponse:
		r.Cached = true
		return r
	case service.LintResponse:
		r.Cached = true
		return r
	case service.RefineResponse:
		r.Cached = true
		return r
	}
	return resp
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics folds the clients' classes into the per-layer time
// metrics. Each layer metric is the request-weighted mean over classes
// of the class's median self time, and http.unattributed_us the
// weighted mean of each class's e2e p50 minus its layers' sum, so the
// identity holds for the folded numbers as for every class. The
// per-class table goes to report.
func layerMetrics(tracers []*tracer, report func(string)) map[string]float64 {
	merged := map[string]*classStats{}
	total := 0
	for _, tr := range tracers {
		for name, cs := range tr.classes {
			m := merged[name]
			if m == nil {
				m = &classStats{layers: map[string][]float64{}}
				merged[name] = m
			}
			m.e2e = append(m.e2e, cs.e2e...)
			for l, v := range cs.layers {
				m.layers[l] = append(m.layers[l], v...)
			}
			total += len(cs.e2e)
		}
	}
	out := map[string]float64{"http.unattributed_us": 0}
	for _, l := range layerOrder {
		out[l+"_us"] = 0
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := merged[name]
		w := float64(len(cs.e2e)) / float64(total)
		e2e := median(cs.e2e)
		var sum float64
		var parts []string
		for _, l := range layerOrder {
			if v, ok := cs.layers[l]; ok {
				m := median(v)
				sum += m
				out[l+"_us"] += w * m
				parts = append(parts, fmt.Sprintf("%s=%.1f", l, m))
			}
		}
		out["http.unattributed_us"] += w * (e2e - sum)
		report(fmt.Sprintf("class %-20s n=%-6d e2e_p50_us=%.1f = layers %.1f + unattributed %.1f  [%s]",
			name, len(cs.e2e), e2e, sum, e2e-sum, strings.Join(parts, " ")))
	}
	return out
}

// tracedMetrics assembles every per-layer metric of a traced run: the
// layer times, the work counts of the cache-miss path, the client-side
// forward split and the counter deltas d of the measured phase. Call it
// with the system under test shut down (see enumerateAllocs).
func tracedMetrics(tracers []*tracer, outs []outcome, d counters) (map[string]metric, error) {
	out := map[string]metric{}
	for name, v := range layerMetrics(tracers, func(line string) { fmt.Println(line) }) {
		out[name] = metric{v, "us"}
	}
	var calls callStats
	for _, tr := range tracers {
		calls.states = append(calls.states, tr.calls.states...)
		calls.transitions = append(calls.transitions, tr.calls.transitions...)
		calls.gas = append(calls.gas, tr.calls.gas...)
		calls.compiled = append(calls.compiled, tr.calls.compiled...)
	}
	allocs, err := enumerateAllocs(calls.compiled[:min(len(calls.compiled), allocSamples)])
	if err != nil {
		return nil, err
	}
	var fwd, local []float64
	for i := range outs {
		if o := &outs[i]; o.completed() && o.forwarded {
			fwd = append(fwd, float64(o.lat)/float64(time.Millisecond))
		} else if o.completed() {
			local = append(local, float64(o.lat)/float64(time.Millisecond))
		}
	}
	completed := float64(len(fwd) + len(local))
	count := func(v float64) metric { return metric{v, "count"} }
	share := func(a, b float64) metric { return metric{ratio(a, b), "ratio"} }
	out["gcl.enumerate_allocs"] = count(allocs)
	out["system.states"] = count(median(calls.states))
	out["system.transitions"] = count(median(calls.transitions))
	out["mc.gas_steps"] = count(median(calls.gas))
	out["fleet.ae_pulled"] = count(float64(d.aePulled))
	out["fleet.local_fallbacks"] = count(float64(d.localFallbacks))
	out["fleet.breaker_opens"] = count(float64(d.breakerOpens))
	out["fleet.budget_exhausted"] = count(float64(d.budgetExhausted))
	out["journal.records_per_commit"] = share(float64(d.records), float64(d.commits))
	out["cache.hit_ratio"] = share(float64(d.hits), float64(d.hits+d.misses))
	out["fleet.forward_ratio"] = share(float64(len(fwd)), completed)
	out["fleet.hedge_ratio"] = share(float64(d.hedgesFired), completed)
	out["fleet.hedge_local_win_ratio"] = share(float64(d.hedgeWin), float64(d.hedgesFired))
	out["fleet.forward_p50_ms"] = metric{median(fwd), "ms"}
	out["fleet.local_p50_ms"] = metric{median(local), "ms"}
	return out, nil
}

// allocSamples bounds the programs whose enumeration allocations are
// counted after the traced run.
const allocSamples = 64

// enumerateAllocs is the median heap allocation count of one
// gcl.CompileProgram over progs. Call it with the system under test shut
// down: the allocation counter is process-wide.
func enumerateAllocs(progs []*gcl.Program) (float64, error) {
	var ms runtime.MemStats
	read := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var counts []float64
	runtime.GC()
	for _, p := range progs {
		before := read()
		if _, err := gcl.CompileProgram("program", p); err != nil {
			return 0, err
		}
		counts = append(counts, float64(read()-before))
	}
	return median(counts), nil
}
