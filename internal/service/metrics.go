package service

import (
	"sync/atomic"
	"time"
)

// latencyBucketsUS are the upper bounds (µs, inclusive) of the latency
// histogram buckets: 100µs, 1ms, 10ms, 100ms, 1s, 10s, plus an implicit
// overflow bucket. Verification latencies span five orders of magnitude
// between a 27-state toy and a budget-bounded sweep, so log-scale buckets
// are the only shape that stays informative.
var latencyBucketsUS = [6]int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// latencyBucketLabels mirror latencyBucketsUS for the JSON snapshot.
var latencyBucketLabels = [7]string{
	"le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "gt_10s",
}

// histogram is a fixed-bucket latency histogram on atomics.
type histogram struct {
	counts [7]atomic.Int64
	sumUS  atomic.Int64
	n      atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for ; i < len(latencyBucketsUS); i++ {
		if us <= latencyBucketsUS[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumUS.Add(us)
	h.n.Add(1)
}

// HistogramSnapshot is the JSON form of one latency histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	MeanUS  float64          `json:"mean_us"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Buckets: make(map[string]int64, len(latencyBucketLabels))}
	out.Count = h.n.Load()
	if out.Count > 0 {
		out.MeanUS = float64(h.sumUS.Load()) / float64(out.Count)
	}
	for i, label := range latencyBucketLabels {
		out.Buckets[label] = h.counts[i].Load()
	}
	return out
}

// metrics is checkd's expvar-style counter set. All fields are atomics;
// the /metrics handler serializes a consistent-enough point-in-time
// snapshot without stopping the world.
type metrics struct {
	requests map[string]*atomic.Int64 // per kind, fixed keys
	latency  map[string]*histogram    // per kind, successful checks only

	ok         atomic.Int64
	badRequest atomic.Int64
	timeout    atomic.Int64
	overload   atomic.Int64
	internal   atomic.Int64

	// Completed chaos campaigns, summed.
	campaigns atomic.Int64
	episodes  atomic.Int64
	passed    atomic.Int64
	failed    atomic.Int64
}

// The apply* methods are the only mutations of the counters, shared by
// the live recorders and the journal replay in New, so a replayed
// server and one that saw the requests live agree by construction.

// applyRequest counts one request arrival of the given kind.
func (m *metrics) applyRequest(kind string) {
	if c, ok := m.requests[kind]; ok {
		c.Add(1)
	}
}

// applyCampaign folds one completed chaos campaign into the summary.
func (m *metrics) applyCampaign(ce campaignEvent) {
	m.campaigns.Add(1)
	m.episodes.Add(int64(ce.Episodes))
	m.passed.Add(int64(ce.Passed))
	m.failed.Add(int64(ce.Failed))
}

// applyOutcome folds one outcome into the response counters and, for a
// successful computed check, kind's latency histogram.
func (m *metrics) applyOutcome(oe outcomeEvent) {
	switch oe.Status {
	case statusOK:
		m.ok.Add(1)
	case statusBadRequest:
		m.badRequest.Add(1)
	case statusTimeout:
		m.timeout.Add(1)
	case statusOverload:
		m.overload.Add(1)
	case statusInternal:
		m.internal.Add(1)
	}
	if oe.Latency {
		if h, ok := m.latency[oe.Kind]; ok {
			h.observe(time.Duration(oe.ElapsedUS) * time.Microsecond)
		}
	}
}

func newMetrics(kinds ...string) *metrics {
	m := &metrics{
		requests: make(map[string]*atomic.Int64, len(kinds)),
		latency:  make(map[string]*histogram, len(kinds)),
	}
	for _, k := range kinds {
		m.requests[k] = &atomic.Int64{}
		m.latency[k] = &histogram{}
	}
	return m
}

// MetricsSnapshot is the JSON document served by GET /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      map[string]int64 `json:"requests"`
	Responses     struct {
		OK         int64 `json:"ok"`
		BadRequest int64 `json:"bad_request"`
		Timeout    int64 `json:"timeout"`
		Overload   int64 `json:"overload"`
		Internal   int64 `json:"internal"`
	} `json:"responses"`
	Cache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
		// Persist is present only when the server runs with a cache file.
		Persist *CachePersistSnapshot `json:"persist,omitempty"`
	} `json:"cache"`
	Queue struct {
		Depth    int64 `json:"depth"`
		Capacity int   `json:"capacity"`
		InFlight int64 `json:"in_flight"`
		Workers  int   `json:"workers"`
		Panics   int64 `json:"panics"`
	} `json:"queue"`
	Latency map[string]HistogramSnapshot `json:"latency_us"`
	// Journal is present only when the server is event-sourced.
	Journal *JournalMetricsSnapshot `json:"journal,omitempty"`
	// Fleet is present only when the server fronts a fleet replica
	// (Config.ResilienceMetrics installed).
	Fleet *FleetResilienceSnapshot `json:"fleet,omitempty"`
}

// FleetResilienceSnapshot is the fleet routing layer's failure-domain
// counters as surfaced through /metrics: per-peer breaker states,
// lifetime breaker transitions, hedged-forward races, and deadline-
// budget refusals. The fleet supplies it via Config.ResilienceMetrics;
// the service only serializes it.
type FleetResilienceSnapshot struct {
	// BreakerStates maps peer id → closed | open | half-open.
	BreakerStates map[string]string `json:"breaker_states"`
	// Breaker transition counters, summed across peers.
	BreakerOpens     int64 `json:"breaker_opens"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerCloses    int64 `json:"breaker_closes"`
	// BreakerSkips counts calls refused by an open breaker (each one a
	// dial-and-timeout the request did not pay).
	BreakerSkips int64 `json:"breaker_skips"`
	// Hedged forwards: races started, and who won them.
	HedgesFired      int64 `json:"hedges_fired"`
	HedgeLocalWins   int64 `json:"hedge_local_wins"`
	HedgeForwardWins int64 `json:"hedge_forward_wins"`
	// HedgeWinRatio is HedgeLocalWins / HedgesFired — the fraction of
	// fired hedges where racing local compute actually paid off.
	HedgeWinRatio float64 `json:"hedge_win_ratio"`
	// Deadline budgets: forwards a peer refused as budget-exhausted
	// (client view) and forwards this replica refused as owner.
	BudgetExhausted int64 `json:"budget_exhausted"`
	BudgetRefused   int64 `json:"budget_refused"`
	// Quarantine: peers currently held, and lifetime offenses.
	Quarantined []string `json:"quarantined,omitempty"`
	Quarantines int64    `json:"quarantines"`
}
