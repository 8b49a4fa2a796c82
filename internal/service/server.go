// Package service is checkd: a long-running HTTP/JSON verification
// daemon over the repository's decision procedures. It exposes the gclc
// verdict battery (POST /v1/selfstab, POST /v1/refine), the ring
// simulator (POST /v1/ringsim), the message-passing cluster runtime
// (POST /v1/cluster), the chaos campaign engine (POST /v1/chaos), the
// static analyzer (POST /v1/lint), and operational endpoints
// (GET /healthz, GET /metrics).
//
// Three layers sit under the handlers:
//
//   - a content-addressed verdict cache (internal/service/cache): the
//     checks are pure functions of their canonicalized inputs, so the
//     SHA-256 of the printed program plus the check kind addresses a
//     verdict exactly;
//   - a bounded worker pool: a fixed number of verification goroutines
//     behind a bounded queue, with 429 on overflow — admission control
//     instead of unbounded memory growth;
//   - cancellation plumbing: every check runs under an mc.Gas carrying
//     the request deadline and a step budget, so a timed-out or
//     abandoned request stops burning CPU mid-sweep.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/mc"
	"repro/internal/service/cache"
)

// Config sizes the server. Zero values mean "use the default".
type Config struct {
	// Workers is the number of verification goroutines
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of requests waiting for a worker;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the verdict cache (default 4096; < 0 disables
	// caching).
	CacheEntries int
	// DefaultTimeout applies to requests that carry no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms (default 5m).
	MaxTimeout time.Duration
	// DefaultBudget is the per-request enumeration step budget when the
	// request carries no budget (default 50M; < 0 means unlimited).
	DefaultBudget int64
	// MaxStates rejects programs whose declared state space exceeds this
	// size before any enumeration happens (default 1<<20).
	MaxStates int
	// CachePath, when non-empty, persists the verdict cache to this file:
	// it is loaded on New (corrupt entries are skipped and counted in
	// /metrics, never a startup failure), snapshotted every
	// CacheSnapshotInterval, and snapshotted once more on Close.
	CachePath string
	// CacheSnapshotInterval is the background snapshot period
	// (default 30s; only meaningful with CachePath).
	CacheSnapshotInterval time.Duration
	// Logf, when non-nil, receives structured job log lines (worker-pool
	// job start/finish, each carrying the request id) so one id traces a
	// request across handlers, queueing, and fleet forward hops. It must
	// be safe for concurrent use; nil disables job logging.
	Logf func(format string, args ...any)
	// JournalPath, when non-empty, event-sources the server through an
	// append-only journal at this file: requests, outcomes, verdicts,
	// and campaign summaries are also appended as typed events, and New
	// replays them into the verdict cache, /metrics counters, and
	// campaign summary before it returns (see journal.go).
	JournalPath string
	// JournalBackend supplies the journal's storage directly (tests,
	// fleet replicas); it takes precedence over JournalPath.
	JournalBackend journal.Backend
	// JournalMaxBatch caps one group commit (default
	// journal.DefaultMaxBatch).
	JournalMaxBatch int
	// JournalMaxBytes, when > 0, bounds the journal file's size: past the
	// budget the server compacts the prefix covered by cache snapshots
	// and, if compaction cannot reclaim enough, degrades append admission
	// (backpressure, then shedding async events — see
	// journal.Options.MaxBytes). Requires a replace-capable backend
	// (JournalPath gives one) and, for the degradation ladder to recover,
	// CachePath (snapshots are what advance the compaction horizon).
	JournalMaxBytes int64
	// JournalCheckpointInterval is how often the retention loop snapshots
	// the cache and publishes the covered sequence to the journal
	// (default 2s; only meaningful with JournalMaxBytes).
	JournalCheckpointInterval time.Duration
	// ResilienceMetrics, when non-nil, supplies the fleet routing
	// layer's breaker/hedge/budget counters for the /metrics "fleet"
	// section. The fleet installs it (the service never imports the
	// fleet); it must be safe for concurrent use.
	ResilienceMetrics func() *FleetResilienceSnapshot
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = 50_000_000
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 20
	}
	if c.CacheSnapshotInterval <= 0 {
		c.CacheSnapshotInterval = 30 * time.Second
	}
	if c.JournalCheckpointInterval <= 0 {
		c.JournalCheckpointInterval = 2 * time.Second
	}
	return c
}

// Server is the checkd HTTP handler. Construct with New, dispose with
// Close.
type Server struct {
	cfg     Config
	pool    *pool
	cache   *cache.Cache
	metrics *metrics
	mux     *http.ServeMux
	start   time.Time
	reqSeq  atomic.Uint64 // request-id sequence

	// persister owns the on-disk cache snapshot; nil when Config.CachePath
	// is empty.
	persister *cachePersister
	// journal event-sources the server; nil without Config.JournalPath /
	// JournalBackend (see journal.go).
	journal *serverJournal
	// draining flips once BeginDrain is called; /readyz reports 503 from
	// then on so load balancers stop routing before the listener closes.
	draining atomic.Bool

	// gate, when non-nil, is received from at the start of every
	// verification job. Tests use it to hold workers busy
	// deterministically; production servers leave it nil.
	gate chan struct{}
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		cache:   cache.New(cfg.CacheEntries),
		metrics: newMetrics(kindSelfStab, kindRefine, kindRingsim, kindCluster, kindChaos, kindLint),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	if cfg.CachePath != "" {
		s.persister = newCachePersister(cfg.CachePath, cfg.CacheSnapshotInterval, s.cache)
	}
	if cfg.JournalBackend != nil || cfg.JournalPath != "" {
		// After the persister: replay resumes verdicts from the
		// snapshot file's journal checkpoint.
		s.journal = newServerJournal(s, cfg)
	}
	s.mux.HandleFunc("POST /v1/selfstab", s.handleSelfStab)
	s.mux.HandleFunc("POST /v1/refine", s.handleRefine)
	s.mux.HandleFunc("POST /v1/ringsim", s.handleRingsim)
	s.mux.HandleFunc("POST /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/chaos", s.handleChaos)
	s.mux.HandleFunc("POST /v1/lint", s.handleLint)
	s.mux.HandleFunc("POST /lint", s.handleLint) // unversioned alias
	s.mux.HandleFunc("GET /v1/journal", s.handleJournalRange)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ctxKey keys values this package stores in request contexts.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// requestIDFrom returns the request id stamped by ServeHTTP, or "" for
// contexts that never passed through it.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// sanitizeRequestID accepts an inbound X-Request-Id only when it is
// short and printable-safe, so a hostile client cannot smuggle log-line
// noise or unbounded bytes through the tracing path.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return ""
		}
	}
	return id
}

// ServeHTTP implements http.Handler. Every request gets a unique id
// (echoed in the X-Request-Id header and attached to error bodies, so a
// failure report can be matched to a server log line), and a panicking
// handler becomes a 500 JSON error carrying that id instead of a
// severed connection. A well-formed inbound X-Request-Id is adopted
// instead of replaced, so a fleet forward hop — or any upstream proxy —
// keeps one id attached to a request end-to-end.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
	if id == "" {
		id = fmt.Sprintf("req-%x-%d", s.start.UnixNano()&0xffffff, s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id))
	defer func() {
		if v := recover(); v != nil {
			s.recordOutcome(statusInternal, "", 0, false)
			writeJSON(w, http.StatusInternalServerError, errorBody{
				Error: fmt.Sprintf("internal error in request %s: %v", id, v)})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// BeginDrain marks the server as shutting down: /readyz starts
// answering 503 so load balancers pull the instance before the listener
// stops accepting. Request handling is unaffected — in-flight and
// still-arriving requests complete normally.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Close stops the worker pool (in-flight jobs finish first), drains the
// journal's writer, and, when cache persistence is configured, takes
// the final cache snapshot — after the writer has drained, so the
// snapshot's journal checkpoint is the journal's final head.
func (s *Server) Close() {
	s.draining.Store(true)
	s.pool.close()
	if s.journal != nil {
		s.journal.close()
	}
	if s.persister != nil {
		s.persister.close()
	}
}

// CacheStats reports the verdict cache's cumulative hit and miss
// counters (also available via GET /metrics).
func (s *Server) CacheStats() (hits, misses uint64) {
	return s.cache.Stats()
}

// logf emits one job log line when Config.Logf is set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// requestError marks a client mistake (bad syntax, unknown family,
// oversized state space): a 400, not a 500.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &requestError{err: fmt.Errorf(format, args...)}
}

// errorBody is the JSON shape of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// RequestTimeout resolves a request's declared timeout_ms against the
// configured default and ceiling (defaults applied, so a zero Config
// works). It is exported for the fleet routing layer, whose deadline
// budgets must agree exactly with what the serving replica will
// enforce.
func (c Config) RequestTimeout(timeoutMS int64) time.Duration {
	c = c.withDefaults()
	d := c.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > c.MaxTimeout {
		d = c.MaxTimeout
	}
	return d
}

// resolveTimeout turns a request's timeout_ms into a bounded duration.
func (s *Server) resolveTimeout(timeoutMS int64) time.Duration {
	return s.cfg.RequestTimeout(timeoutMS)
}

// resolveBudget turns a request's budget into the gas step budget.
func (s *Server) resolveBudget(budget int64) int64 {
	if budget > 0 && (s.cfg.DefaultBudget < 0 || budget < s.cfg.DefaultBudget) {
		return budget
	}
	return s.cfg.DefaultBudget
}

// outcome carries a job's result to the waiting handler.
type outcome struct {
	val any
	err error
}

// execute runs compute on the worker pool under the request's deadline
// and writes the HTTP response: 200 with the computed value (also cached
// under key when key != ""), 429 on queue overflow, 504 on deadline, 400
// on request errors, 422 on budget exhaustion.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, kind, key string,
	timeoutMS int64, compute func(ctx context.Context) (any, error)) {
	started := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.resolveTimeout(timeoutMS))
	defer cancel()

	res := make(chan outcome, 1)
	j := &job{ctx: ctx, run: func(ctx context.Context) {
		if s.gate != nil {
			select {
			case <-s.gate:
			case <-ctx.Done():
				res <- outcome{err: ctx.Err()}
				return
			}
		}
		// The log arguments are boxed only when someone reads them.
		logging := s.cfg.Logf != nil
		if logging {
			s.logf("job start kind=%s request=%s", kind, requestIDFrom(ctx))
		}
		v, err := safeCompute(ctx, compute)
		if logging {
			status := "ok"
			if err != nil {
				status = "err"
			}
			s.logf("job done kind=%s request=%s status=%s elapsed_us=%d",
				kind, requestIDFrom(ctx), status, time.Since(started).Microseconds())
		}
		res <- outcome{val: v, err: err}
	}}
	if !s.pool.submit(j) {
		s.recordOutcome(statusOverload, kind, 0, false)
		// Queue overflow is transient by construction — in-flight checks
		// finish in seconds — so tell well-behaved clients when to come
		// back instead of letting them hammer the queue.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error: fmt.Sprintf("verification queue is full (depth %d); retry later", s.cfg.QueueDepth)})
		return
	}

	select {
	case o := <-res:
		if o.err != nil {
			s.writeComputeError(w, o.err)
			return
		}
		if key != "" {
			// Durable before the response: a verdict the client sees is
			// a verdict the journal replays.
			s.recordVerdict(kind, key, o.val)
		}
		s.recordOutcome(statusOK, kind, time.Since(started), true)
		writeJSON(w, http.StatusOK, o.val)
	case <-ctx.Done():
		// The job either never started (skipped by the worker) or is
		// being cancelled through its gas meter right now. Like the 429
		// path, a deadline miss is transient — the next attempt may hit
		// the cache or an idle worker — so tell clients when to retry.
		s.recordOutcome(statusTimeout, kind, 0, false)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusGatewayTimeout, errorBody{
			Error: fmt.Sprintf("request did not finish within its deadline: %v", ctx.Err())})
	}
}

// safeCompute runs one check, converting a panic into an error so a
// buggy checker costs its request a 500 — carrying the request id for
// log correlation — instead of the whole process.
func safeCompute(ctx context.Context, compute func(ctx context.Context) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("check panicked: %v (request %s)", p, requestIDFrom(ctx))
		}
	}()
	return compute(ctx)
}

func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	var re *requestError
	switch {
	case errors.As(err, &re):
		s.recordOutcome(statusBadRequest, "", 0, false)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: re.Error()})
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.recordOutcome(statusTimeout, "", 0, false)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "request did not finish within its deadline: " + err.Error()})
	case errors.Is(err, mc.ErrBudgetExhausted):
		s.recordOutcome(statusBadRequest, "", 0, false)
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
	default:
		s.recordOutcome(statusInternal, "", 0, false)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// cachedResponse is implemented by every cacheable response type: it
// returns a copy marked as served from cache, so the stored value stays
// immutable.
type cachedResponse interface {
	asCached(elapsed time.Duration) any
}

// serveFromCache answers from the verdict cache if possible.
func (s *Server) serveFromCache(w http.ResponseWriter, key string, started time.Time) bool {
	v, ok := s.cache.Get(key)
	if !ok {
		return false
	}
	s.recordOutcome(statusOK, "", 0, false)
	writeJSON(w, http.StatusOK, v.(cachedResponse).asCached(time.Since(started)))
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// readyHighWater is the queue-depth fraction past which /readyz reports
// not-ready: at three quarters full the instance still answers, but a
// balancer should prefer peers with headroom before overflow turns into
// 429s.
func (s *Server) readyHighWater() int64 {
	hw := int64(s.cfg.QueueDepth) * 3 / 4
	if hw < 1 {
		hw = 1
	}
	return hw
}

// handleReadyz is readiness, distinct from /healthz liveness: a healthy
// process stops being ready while draining for shutdown or when the
// verification queue is saturated past the high-water mark.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	depth := s.pool.depth.Load()
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
		})
	case depth >= s.readyHighWater():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":      "saturated",
			"queue_depth": depth,
			"high_water":  s.readyHighWater(),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "ready",
			"queue_depth": depth,
		})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap MetricsSnapshot
	snap.UptimeSeconds = time.Since(s.start).Seconds()
	snap.Requests = make(map[string]int64, len(s.metrics.requests))
	for k, c := range s.metrics.requests {
		snap.Requests[k] = c.Load()
	}
	snap.Responses.OK = s.metrics.ok.Load()
	snap.Responses.BadRequest = s.metrics.badRequest.Load()
	snap.Responses.Timeout = s.metrics.timeout.Load()
	snap.Responses.Overload = s.metrics.overload.Load()
	snap.Responses.Internal = s.metrics.internal.Load()
	snap.Cache.Hits, snap.Cache.Misses = s.cache.Stats()
	snap.Cache.Entries = s.cache.Len()
	if s.persister != nil {
		snap.Cache.Persist = s.persister.metricsSnapshot()
	}
	snap.Queue.Depth = s.pool.depth.Load()
	snap.Queue.Capacity = s.cfg.QueueDepth
	snap.Queue.InFlight = s.pool.inFlight.Load()
	snap.Queue.Workers = s.cfg.Workers
	snap.Queue.Panics = s.pool.panics.Load()
	snap.Latency = make(map[string]HistogramSnapshot, len(s.metrics.latency))
	for k, h := range s.metrics.latency {
		snap.Latency[k] = h.snapshot()
	}
	if s.journal != nil {
		snap.Journal = s.journalMetricsSnapshot()
	}
	if s.cfg.ResilienceMetrics != nil {
		snap.Fleet = s.cfg.ResilienceMetrics()
	}
	writeJSON(w, http.StatusOK, snap)
}
