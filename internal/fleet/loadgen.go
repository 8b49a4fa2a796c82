package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

// Loadgen: a seeded closed-loop traffic harness against a fleet's HTTP
// addresses. The workload — request kinds, program choice, entry
// replica — is pre-generated from the seed, so two runs with the same
// seed issue byte-identical request sequences; program popularity is
// Zipf-distributed, so a cache has something to earn. Counts (status
// codes, cache hits, forwards) are deterministic for a fixed seed in
// sequential mode; latency and throughput are measured wall-clock and
// belong in benchmark files, not golden ones.

// Mix is the traffic mix in percent; it must sum to 100.
type Mix struct {
	CheckPct  int `json:"check_pct"`
	LintPct   int `json:"lint_pct"`
	RefinePct int `json:"refine_pct"`
}

// LoadgenConfig parameterizes one run.
type LoadgenConfig struct {
	// Addrs are the replica HTTP addresses; request i enters at
	// Addrs[i % len(Addrs)].
	Addrs []string
	// Requests is the total request count (default 300).
	Requests int
	// Warmup excludes the first Warmup requests from hit-ratio and
	// latency statistics (they still run and still count status codes).
	Warmup int
	// Programs is the distinct-program population size (default 20).
	Programs int
	// Seed drives workload generation.
	Seed int64
	// ZipfS is the Zipf skew (must be > 1; default 1.2). Larger values
	// concentrate traffic on fewer programs.
	ZipfS float64
	// Mix is the check/lint/refine traffic mix (default 60/30/10).
	Mix Mix
	// Concurrency is the closed-loop worker count (default 1:
	// sequential, fully deterministic counts).
	Concurrency int
	// TimeoutMS is the per-request timeout_ms field (default 30000).
	TimeoutMS int64
	// Pace, when positive, sleeps this long between consecutive
	// requests of each worker — stretching the run across a chaos
	// campaign instead of finishing before the first fault lands.
	Pace time.Duration
}

func (c LoadgenConfig) withDefaults() LoadgenConfig {
	if c.Requests <= 0 {
		c.Requests = 300
	}
	if c.Programs <= 0 {
		c.Programs = 20
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Mix == (Mix{}) {
		c.Mix = Mix{CheckPct: 60, LintPct: 30, RefinePct: 10}
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.TimeoutMS <= 0 {
		c.TimeoutMS = 30_000
	}
	return c
}

// LoadgenProgram returns the i'th program of the workload population:
// small distinct state spaces (3..6 values of one variable), cheap to
// check and cheap to tell apart by fingerprint.
func LoadgenProgram(i int) string {
	k := 3 + i%4
	return fmt.Sprintf(
		"var x : 0..%d;\ninit x == %d;\naction tick%d: true -> x := (x + 1) %% %d;\naction snap: x == %d -> x := %d;\n",
		k-1, i%k, i, k, (i/2)%k, i%k)
}

// loadgenRequest is one pre-generated workload entry.
type loadgenRequest struct {
	kind    string
	program int
	addr    string
}

// LatencySummary is the measured latency digest, in microseconds.
type LatencySummary struct {
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
	P999US int64 `json:"p999_us"`
	MaxUS  int64 `json:"max_us"`
}

// ReplicaLoad is one replica's contribution, read from its /fleetz —
// plus, on event-sourced replicas, the journal gauges from /metrics.
type ReplicaLoad struct {
	Replica         string  `json:"replica"`
	Forwards        int64   `json:"forwards"`
	ForwardedServed int64   `json:"forwarded_served"`
	LocalFallbacks  int64   `json:"local_fallbacks"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	HitRatio        float64 `json:"hit_ratio"`
	AEJournalRounds int64   `json:"ae_journal_rounds,omitempty"`

	// Failure-domain counters: breaker transitions, hedged-forward
	// races, and deadline-budget refusals observed by this replica.
	BreakerOpens     int64    `json:"breaker_opens,omitempty"`
	BreakerHalfOpens int64    `json:"breaker_half_opens,omitempty"`
	BreakerSkips     int64    `json:"breaker_skips,omitempty"`
	HedgesFired      int64    `json:"hedges_fired,omitempty"`
	HedgeLocalWins   int64    `json:"hedge_local_wins,omitempty"`
	HedgeWinRatio    float64  `json:"hedge_win_ratio,omitempty"`
	BudgetExhausted  int64    `json:"budget_exhausted,omitempty"`
	Quarantined      []string `json:"quarantined,omitempty"`

	// Journal carries last_seq, journal_depth, journal_batch_size_p50/p99,
	// and the commit counters for event-sourced replicas.
	Journal *service.JournalMetricsSnapshot `json:"journal,omitempty"`
}

// LoadgenReport is the run's result. Every field above the latency
// section is deterministic for a fixed seed when Concurrency is 1.
type LoadgenReport struct {
	Addrs    []string `json:"addrs"`
	Requests int      `json:"requests"`
	Warmup   int      `json:"warmup"`
	Programs int      `json:"programs"`
	Seed     int64    `json:"seed"`
	Mix      Mix      `json:"mix"`

	// ByKind counts issued requests per check kind.
	ByKind map[string]int `json:"by_kind"`
	// Status counts responses by HTTP status code (all requests,
	// including warmup). Transport errors count under "error".
	Status map[string]int64 `json:"status"`
	// Overload429 and Timeout504 pull the two back-pressure codes out
	// for direct reading.
	Overload429 int64 `json:"overload_429"`
	Timeout504  int64 `json:"timeout_504"`
	ServerErr5x int64 `json:"server_5xx"`

	// Measured section: post-warmup requests only.
	Measured     int     `json:"measured"`
	CachedOK     int64   `json:"cached_ok"`
	HitRatio     float64 `json:"hit_ratio"`
	Forwarded    int64   `json:"forwarded"`
	ForwardRatio float64 `json:"forward_ratio"`
	// Retried counts requests (warmup included) whose entry replica
	// refused the connection and another replica answered instead.
	Retried int64 `json:"retried"`

	PerReplica []ReplicaLoad `json:"per_replica,omitempty"`

	// Wall-clock section: reproducible in shape, not in value.
	Latency       LatencySummary `json:"latency"`
	ElapsedMS     int64          `json:"elapsed_ms"`
	ThroughputRPS float64        `json:"throughput_rps"`
}

// generateWorkload pre-draws the full request sequence from the seed.
func generateWorkload(cfg LoadgenConfig) []loadgenRequest {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Programs-1))
	out := make([]loadgenRequest, cfg.Requests)
	for i := range out {
		var kind string
		switch pick := rng.Intn(100); {
		case pick < cfg.Mix.CheckPct:
			kind = "selfstab"
		case pick < cfg.Mix.CheckPct+cfg.Mix.LintPct:
			kind = "lint"
		default:
			kind = "refine"
		}
		out[i] = loadgenRequest{
			kind:    kind,
			program: int(zipf.Uint64()),
			addr:    cfg.Addrs[i%len(cfg.Addrs)],
		}
	}
	return out
}

// body builds the request path and JSON body for one workload entry.
func (lr loadgenRequest) bodyAndPath(timeoutMS int64) (string, []byte) {
	src := LoadgenProgram(lr.program)
	switch lr.kind {
	case "selfstab":
		b, _ := json.Marshal(map[string]any{"source": src, "timeout_ms": timeoutMS})
		return "/v1/selfstab", b
	case "lint":
		b, _ := json.Marshal(map[string]any{"source": src, "timeout_ms": timeoutMS})
		return "/v1/lint", b
	default: // refine: a program refines itself — same-shape guaranteed
		b, _ := json.Marshal(map[string]any{"concrete": src, "abstract": src, "timeout_ms": timeoutMS})
		return "/v1/refine", b
	}
}

// loadgenOutcome is what one request contributes to the report.
type loadgenOutcome struct {
	status    int // 0 = no replica accepted the request
	cached    bool
	forwarded bool
	retried   bool // entry replica failed; another one answered
	elapsed   time.Duration
	measured  bool
}

// RunLoadgen executes the workload and aggregates the report. With
// Concurrency 1 requests run strictly in workload order (closed loop
// of one); otherwise Concurrency closed-loop workers each own the
// workload slice congruent to their index.
func RunLoadgen(ctx context.Context, cfg LoadgenConfig) (*LoadgenReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no target addresses")
	}
	if cfg.Warmup >= cfg.Requests {
		return nil, fmt.Errorf("loadgen: warmup %d swallows all %d requests", cfg.Warmup, cfg.Requests)
	}
	workload := generateWorkload(cfg)
	outcomes := make([]loadgenOutcome, len(workload))
	client := &http.Client{}

	start := time.Now() //gcvet:detrand-ok loadgen exists to measure real request latency
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(workload); i += cfg.Concurrency {
				select {
				case <-ctx.Done():
					return
				default:
				}
				outcomes[i] = runOne(ctx, client, cfg.Addrs, workload[i], cfg.TimeoutMS)
				outcomes[i].measured = i >= cfg.Warmup
				if cfg.Pace > 0 {
					time.Sleep(cfg.Pace)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start) //gcvet:detrand-ok loadgen exists to measure real request latency

	rep := &LoadgenReport{
		Addrs: cfg.Addrs, Requests: cfg.Requests, Warmup: cfg.Warmup,
		Programs: cfg.Programs, Seed: cfg.Seed, Mix: cfg.Mix,
		ByKind: make(map[string]int), Status: make(map[string]int64),
		ElapsedMS: elapsed.Milliseconds(),
	}
	var lat []time.Duration
	for i, o := range outcomes {
		rep.ByKind[workload[i].kind]++
		if o.status == 0 {
			rep.Status["error"]++
		} else {
			rep.Status[fmt.Sprintf("%d", o.status)]++
		}
		if o.retried {
			rep.Retried++
		}
		switch {
		case o.status == http.StatusTooManyRequests:
			rep.Overload429++
		case o.status == http.StatusGatewayTimeout:
			rep.Timeout504++
		case o.status >= 500:
			rep.ServerErr5x++
		}
		if !o.measured {
			continue
		}
		rep.Measured++
		if o.status == http.StatusOK {
			if o.cached {
				rep.CachedOK++
			}
			lat = append(lat, o.elapsed)
		}
		if o.forwarded {
			rep.Forwarded++
		}
	}
	if rep.Measured > 0 {
		rep.HitRatio = round4(float64(rep.CachedOK) / float64(rep.Measured))
		rep.ForwardRatio = round4(float64(rep.Forwarded) / float64(rep.Measured))
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rep.Latency = LatencySummary{
			P50US:  lat[len(lat)*50/100].Microseconds(),
			P99US:  lat[min(len(lat)*99/100, len(lat)-1)].Microseconds(),
			P999US: lat[min(len(lat)*999/1000, len(lat)-1)].Microseconds(),
			MaxUS:  lat[len(lat)-1].Microseconds(),
		}
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rep.ThroughputRPS = round4(float64(cfg.Requests) / sec)
	}
	rep.PerReplica = fetchReplicaLoads(client, cfg.Addrs)
	return rep, nil
}

func round4(f float64) float64 {
	return float64(int64(f*10_000+0.5)) / 10_000
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runOne issues one request and classifies the outcome. A transport
// error — the entry replica crashed mid-campaign — retries on the
// other replicas in order, exactly as a client with a replica list
// would; only a request no replica accepts records an error.
func runOne(ctx context.Context, client *http.Client, addrs []string, lr loadgenRequest, timeoutMS int64) loadgenOutcome {
	path, body := lr.bodyAndPath(timeoutMS)
	started := time.Now() //gcvet:detrand-ok per-request wall-clock latency is the measured quantity
	var resp *http.Response
	tryAddr := func(addr string) bool {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err = client.Do(req)
		return err == nil
	}
	ok := tryAddr(lr.addr)
	for i := 0; !ok && i < len(addrs); i++ {
		if addrs[i] != lr.addr {
			ok = tryAddr(addrs[i])
		}
	}
	if !ok {
		return loadgenOutcome{retried: true}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, fleetMaxBody))
	out := loadgenOutcome{
		status:    resp.StatusCode,
		forwarded: resp.Header.Get("X-Fleet-Owner") != "",
		retried:   resp.Request.URL.Host != lr.addr,
		elapsed:   time.Since(started), //gcvet:detrand-ok per-request wall-clock latency is the measured quantity
	}
	if resp.StatusCode == http.StatusOK {
		var probe struct {
			Cached bool `json:"cached"`
		}
		if json.Unmarshal(raw, &probe) == nil {
			out.cached = probe.Cached
		}
	}
	return out
}

// fetchJournalGauges reads one replica's /metrics journal section; nil
// for journal-less replicas or unreachable targets.
func fetchJournalGauges(client *http.Client, addr string) *service.JournalMetricsSnapshot {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, fleetMaxBody))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var snap service.MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil
	}
	return snap.Journal
}

// fetchReplicaLoads polls each target's /fleetz. Targets that do not
// answer (a plain checkd, a crashed replica) are skipped.
func fetchReplicaLoads(client *http.Client, addrs []string) []ReplicaLoad {
	var out []ReplicaLoad
	for _, addr := range addrs {
		resp, err := client.Get("http://" + addr + "/fleetz")
		if err != nil {
			continue
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, fleetMaxBody))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		var st FleetzStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			continue
		}
		rl := ReplicaLoad{
			Replica:         st.Replica,
			Forwards:        st.Forwards,
			ForwardedServed: st.ForwardedServed,
			LocalFallbacks:  st.LocalFallbacks,
			CacheHits:       st.CacheHits,
			CacheMisses:     st.CacheMisses,
			AEJournalRounds: st.AEJournalRounds,

			BreakerOpens:     st.BreakerOpens,
			BreakerHalfOpens: st.BreakerHalfOpens,
			BreakerSkips:     st.BreakerSkips,
			HedgesFired:      st.HedgesFired,
			HedgeLocalWins:   st.HedgeLocalWins,
			BudgetExhausted:  st.BudgetExhausted,
			Quarantined:      st.Quarantined,
		}
		if total := st.CacheHits + st.CacheMisses; total > 0 {
			rl.HitRatio = round4(float64(st.CacheHits) / float64(total))
		}
		if st.HedgesFired > 0 {
			rl.HedgeWinRatio = round4(float64(st.HedgeLocalWins) / float64(st.HedgesFired))
		}
		rl.Journal = fetchJournalGauges(client, addr)
		out = append(out, rl)
	}
	return out
}
