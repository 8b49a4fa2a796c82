package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// fleetMaxBody bounds a routed request body before routing looks at
// it, matching the service's own bound.
const fleetMaxBody = 1 << 20

// peer is a replica's view of one other fleet member.
type peer struct {
	id     string
	addr   string // RPC address
	client *peerClient
	br     *breaker

	misses    int
	suspected bool
	left      bool

	// journalCursor is the peer journal sequence number anti-entropy
	// has pulled through (journal mode only; reset on local restart).
	journalCursor uint64
}

// Replica is one checkd process inside a fleet: a full service.Server
// (worker pool, verdict cache, metrics) behind a routing layer that
// forwards program-addressed requests to their ring owner, plus the
// membership and anti-entropy loops.
type Replica struct {
	id  string
	idx int
	f   *Fleet

	httpAddr string
	rpcAddr  string

	// journal is this replica's fleet-held event journal backend
	// (Config.Journal); nil in digest-only fleets. It survives crash/
	// restart, so a restarted incarnation replays its own history.
	journal journal.Backend

	mu      sync.Mutex
	svc     *service.Server
	ring    *Ring
	peers   map[string]*peer
	blocked map[string]bool // partitioned-away peer ids
	down    bool

	httpSrv   *http.Server
	httpLn    net.Listener
	rpcLn     net.Listener
	stop      chan struct{}
	conns     map[net.Conn]bool // live inbound RPC connections
	leftFleet bool              // gracefully departed (StopReplica)

	joined atomic.Bool
	aeDone atomic.Bool
	reqSeq atomic.Uint64

	aeCursor int // round-robin anti-entropy target index

	forwards        atomic.Int64 // requests forwarded to their owner
	forwardErrors   atomic.Int64 // forward RPCs that failed
	localFallbacks  atomic.Int64 // owner-miss requests computed locally
	forwardedServed atomic.Int64 // forwards served on behalf of peers
	aeRounds        atomic.Int64 // anti-entropy rounds completed
	aePulled        atomic.Int64 // entries pulled by anti-entropy
	aeJournalRounds atomic.Int64 // rounds served by journal suffixes
	aeJournalHoles  atomic.Int64 // cursors caught below a peer's compaction horizon

	hedgesFired      atomic.Int64 // forwards that tripped the hedge timer
	hedgeLocalWins   atomic.Int64 // hedged races local compute won
	hedgeForwardWins atomic.Int64 // hedged races the forward still won
	budgetExhausted  atomic.Int64 // forwards an owner refused as budget-exhausted
	budgetRefused    atomic.Int64 // forwards this replica refused as owner

	// Gray-failure injection (campaign faults): a data-plane RPC delay
	// and a hostile-reply switch. Pings are never affected.
	slowDelay atomic.Int64 // nanoseconds
	garbage   atomic.Bool

	wg sync.WaitGroup
}

// ID returns the replica's fleet id ("r0", "r1", …).
func (rp *Replica) ID() string { return rp.id }

// HTTPAddr returns the replica's HTTP listen address.
func (rp *Replica) HTTPAddr() string { return rp.httpAddr }

// RPCAddr returns the replica's fleet RPC listen address.
func (rp *Replica) RPCAddr() string { return rp.rpcAddr }

// Service returns the replica's underlying service.Server (nil while
// crashed).
func (rp *Replica) Service() *service.Server {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.svc
}

// Ready reports fleet readiness: the replica has joined the ring and —
// when periodic anti-entropy is enabled — completed its first
// anti-entropy round. /readyz on a fleet member reports 503 until
// then, so a balancer never routes to a replica still cold-booting
// into the fleet.
func (rp *Replica) Ready() bool {
	if !rp.joined.Load() {
		return false
	}
	if rp.f.cfg.AntiEntropyInterval < 0 {
		return true // manual anti-entropy: rounds run only on demand
	}
	return rp.aeDone.Load()
}

// RingMembers returns the replica's current ring view, sorted.
func (rp *Replica) RingMembers() []string {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.ring.Members()
}

// nextID mints a request id for requests that arrive without one.
func (rp *Replica) nextID() string {
	return fmt.Sprintf("rq-%s-%d", rp.id, rp.reqSeq.Add(1))
}

// ServeHTTP implements the fleet routing layer. Operational endpoints
// and non-routable requests go straight to the local service; routable
// requests are served locally when this replica owns the fingerprint
// (or already holds the verdict), and forwarded to the owner
// otherwise. A forward that fails for any reason — partition, crash,
// timeout — falls back to local compute: an owner miss costs a
// duplicated verdict, never a 5xx.
func (rp *Replica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/fleetz" {
		rp.handleFleetz(w)
		return
	}
	svc := rp.Service()
	if svc == nil {
		http.Error(w, "replica is down", http.StatusServiceUnavailable)
		return
	}
	if r.Method == http.MethodGet && r.URL.Path == "/readyz" && !rp.Ready() {
		writeFleetJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "joining",
			"replica": rp.id,
			"joined":  rp.joined.Load(),
			"ae_done": rp.aeDone.Load(),
		})
		return
	}
	kind, routable := service.RouteKind(r.Method, r.URL.Path)
	if !routable {
		svc.ServeHTTP(w, r)
		return
	}
	started := wallNow()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, fleetMaxBody))
	if err != nil {
		writeFleetJSON(w, http.StatusBadRequest, map[string]any{"error": "reading request body: " + err.Error()})
		return
	}
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = rp.nextID()
	}

	info, err := service.Route(kind, body)
	if err != nil {
		// Unroutable body: the local handler produces the canonical 400.
		rp.serveLocal(svc, w, r, body, id)
		return
	}
	owner := rp.ownerOf(info.RingKey)
	if owner == "" || owner == rp.id {
		rp.serveLocal(svc, w, r, body, id)
		return
	}
	// Not the owner: serve from the local (anti-entropy-synced) cache
	// when possible, else forward the request to its owner — behind the
	// owner's circuit breaker, under the shrinking deadline budget, and
	// hedged by local compute once the forward outstays its welcome
	// (hedge.go).
	if svc.TryServeCached(w, info.CacheKey, id) {
		return
	}
	rp.routeToOwner(svc, w, r, body, id, owner, info, started)
}

// serveLocal hands the request to the local service with the body
// restored and the fleet's request id attached (the service adopts a
// well-formed inbound id instead of minting its own).
func (rp *Replica) serveLocal(svc *service.Server, w http.ResponseWriter, r *http.Request, body []byte, id string) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	r2.Header.Set("X-Request-Id", id)
	svc.ServeHTTP(w, r2)
}

// ownerOf resolves the ring owner of a routing key.
func (rp *Replica) ownerOf(ringKey string) string {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.ring.Owner(ringKey)
}

// callPeer runs one RPC against a peer, honoring partitions: a blocked
// peer fails immediately, exactly as an unreachable host would.
func (rp *Replica) callPeer(id string, req rpcRequest, timeout time.Duration) (rpcReply, error) {
	rp.mu.Lock()
	if rp.down {
		rp.mu.Unlock()
		return rpcReply{}, fmt.Errorf("fleet: replica %s is down", rp.id)
	}
	if rp.blocked[id] {
		rp.mu.Unlock()
		return rpcReply{}, fmt.Errorf("fleet: %s is partitioned away from %s", rp.id, id)
	}
	p, ok := rp.peers[id]
	rp.mu.Unlock()
	if !ok {
		return rpcReply{}, fmt.Errorf("fleet: unknown peer %q", id)
	}
	return p.client.call(req, timeout)
}

// handleForward is the owner side of a forward hop: replay the request
// against the local service with the original request id, and ship the
// status and body back. A declared TimeoutMS is the requester's
// *remaining* deadline budget: the owner honors it as its context
// deadline (the service's Gas plumbing makes the check stop there) and
// refuses outright — budget_exhausted, no compute — when the remainder
// is too small to be worth the hop.
func (rp *Replica) handleForward(req rpcRequest) rpcReply {
	svc := rp.Service()
	if svc == nil {
		return rpcReply{Err: "replica is down"}
	}
	if _, ok := service.RouteKind(http.MethodPost, req.Path); !ok {
		return rpcReply{Err: fmt.Sprintf("path %q is not forwardable", req.Path)}
	}
	timeout := forwardTimeout
	if req.TimeoutMS > 0 {
		budget := time.Duration(req.TimeoutMS) * time.Millisecond
		if budget < budgetFloor {
			rp.budgetRefused.Add(1)
			return rpcReply{OK: true, BudgetExhausted: true}
		}
		if budget < timeout {
			timeout = budget
		}
	}
	rp.forwardedServed.Add(1)
	rp.f.logf("fleet %s: serving forward request=%s path=%s from=%s", rp.id, req.ID, req.Path, req.From)

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	hr := (&http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: req.Path},
		Header: http.Header{"X-Request-Id": {req.ID}},
		Body:   io.NopCloser(bytes.NewReader(req.Body)),
	}).WithContext(ctx)
	rec := &responseRecorder{header: make(http.Header)}
	svc.ServeHTTP(rec, hr)
	return rpcReply{OK: true, Status: rec.status, Body: rec.buf.Bytes()}
}

// responseRecorder captures a handler's response for the RPC reply.
type responseRecorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }
func (r *responseRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *responseRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// writeFleetJSON writes a JSON response from the fleet layer itself.
func writeFleetJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(mustJSON(v))
}

// trackConn registers a live inbound RPC connection; it reports false
// when the replica is down, telling the acceptor to drop the
// connection instead of serving it.
func (rp *Replica) trackConn(c net.Conn) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.down {
		return false
	}
	rp.conns[c] = true
	return true
}

func (rp *Replica) untrackConn(c net.Conn) {
	rp.mu.Lock()
	delete(rp.conns, c)
	rp.mu.Unlock()
}

// closeConns severs every live inbound RPC connection (crash).
func (rp *Replica) closeConns() {
	rp.mu.Lock()
	conns := make([]net.Conn, 0, len(rp.conns))
	for c := range rp.conns {
		conns = append(conns, c)
	}
	rp.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// --- membership ---

// livePeers snapshots the peers currently believed alive, sorted by
// id.
func (rp *Replica) livePeers() []*peer {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make([]*peer, 0, len(rp.peers))
	for _, p := range rp.peers {
		if !p.suspected && !p.left && !rp.blocked[p.id] {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// allPeers snapshots every known peer that has not left, sorted by id.
func (rp *Replica) allPeers() []*peer {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make([]*peer, 0, len(rp.peers))
	for _, p := range rp.peers {
		if !p.left {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// heartbeatLoop pings every peer each interval, feeding the
// suspicion/recovery state machine.
func (rp *Replica) heartbeatLoop(stop chan struct{}) {
	defer rp.wg.Done()
	t := time.NewTicker(rp.f.cfg.HeartbeatInterval)
	defer t.Stop()
	rp.sweep()
	if !rp.joined.Load() {
		rp.joined.Store(true)
		rp.f.mon.emit(KindReplicaJoined, rp.id, "", fmt.Sprintf("peers=%d", len(rp.allPeers())))
	}
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rp.sweep()
		}
	}
}

// sweep pings every non-left peer once.
func (rp *Replica) sweep() {
	timeout := rp.f.cfg.HeartbeatInterval
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	for _, p := range rp.allPeers() {
		reply, err := rp.callPeer(p.id, rpcRequest{Op: "ping", From: rp.id}, timeout)
		rp.noteHeartbeat(p.id, err == nil && reply.OK)
	}
}

// noteHeartbeat advances one peer's suspicion state: suspectAfter
// consecutive misses removes the peer from the ring (its keys re-home
// to the survivors); the first success re-admits it.
func (rp *Replica) noteHeartbeat(id string, ok bool) {
	rp.mu.Lock()
	p, known := rp.peers[id]
	if !known || p.left {
		rp.mu.Unlock()
		return
	}
	var event string
	if ok {
		p.misses = 0
		if p.suspected {
			p.suspected = false
			rp.ring.Add(id)
			event = KindReplicaRecovered
		}
	} else {
		p.misses++
		if !p.suspected && p.misses >= suspectAfter {
			p.suspected = true
			rp.ring.Remove(id)
			event = KindReplicaSuspected
		}
	}
	rp.mu.Unlock()
	if event != "" {
		rp.f.mon.emit(event, id, rp.id, "")
	}
}

// sawPeer treats any inbound RPC as liveness evidence.
func (rp *Replica) sawPeer(id string) {
	if id == "" {
		return
	}
	rp.mu.Lock()
	p, known := rp.peers[id]
	if !known || p.left || rp.blocked[id] {
		rp.mu.Unlock()
		return
	}
	p.misses = 0
	recovered := p.suspected
	if recovered {
		p.suspected = false
		rp.ring.Add(id)
	}
	rp.mu.Unlock()
	if recovered {
		rp.f.mon.emit(KindReplicaRecovered, id, rp.id, "inbound rpc")
	}
}

// peerLeft handles a graceful leave notification.
func (rp *Replica) peerLeft(id string) {
	rp.mu.Lock()
	if p, ok := rp.peers[id]; ok {
		p.left = true
		p.client.closeIdle()
		rp.ring.Remove(id)
	}
	rp.mu.Unlock()
}

// peerReturned clears the left flag when a stopped replica restarts.
func (rp *Replica) peerReturned(id string) {
	rp.mu.Lock()
	if p, ok := rp.peers[id]; ok && p.left {
		p.left = false
		p.misses = 0
		p.suspected = false
		rp.ring.Add(id)
	}
	rp.mu.Unlock()
}

// block severs this replica's view of a peer (partition fault).
func (rp *Replica) block(id string) {
	rp.mu.Lock()
	rp.blocked[id] = true
	if p, ok := rp.peers[id]; ok {
		p.client.closeIdle()
	}
	rp.mu.Unlock()
}

// unblock heals this replica's view of a peer.
func (rp *Replica) unblock(id string) {
	rp.mu.Lock()
	delete(rp.blocked, id)
	rp.mu.Unlock()
}

// --- status ---

// FleetzStatus is the GET /fleetz response: the replica's view of the
// fleet, plus its routing and anti-entropy counters.
type FleetzStatus struct {
	Replica string   `json:"replica"`
	Ready   bool     `json:"ready"`
	Joined  bool     `json:"joined"`
	AEDone  bool     `json:"ae_done"`
	Ring    []string `json:"ring"`

	Forwards        int64 `json:"forwards"`
	ForwardErrors   int64 `json:"forward_errors"`
	LocalFallbacks  int64 `json:"local_fallbacks"`
	ForwardedServed int64 `json:"forwarded_served"`
	AERounds        int64 `json:"ae_rounds"`
	AEPulled        int64 `json:"ae_pulled"`
	AEJournalRounds int64 `json:"ae_journal_rounds"`
	AEJournalHoles  int64 `json:"ae_journal_holes"`

	// Failure-domain hardening counters (see breaker.go / hedge.go).
	Breakers         map[string]string `json:"breakers,omitempty"` // peer id → breaker state
	BreakerOpens     int64             `json:"breaker_opens"`
	BreakerHalfOpens int64             `json:"breaker_half_opens"`
	BreakerCloses    int64             `json:"breaker_closes"`
	BreakerSkips     int64             `json:"breaker_skips"`
	HedgesFired      int64             `json:"hedges_fired"`
	HedgeLocalWins   int64             `json:"hedge_local_wins"`
	HedgeForwardWins int64             `json:"hedge_forward_wins"`
	BudgetExhausted  int64             `json:"budget_exhausted"`
	BudgetRefused    int64             `json:"budget_refused"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	// JournalLastSeq is the replica's journal head (journal fleets only).
	JournalLastSeq uint64 `json:"journal_last_seq,omitempty"`
}

// resilienceSnapshot aggregates the breaker/hedge/budget counters
// across this replica's peers. It backs both /fleetz and the service's
// /metrics "fleet" section (installed via
// service.Config.ResilienceMetrics, so the service never imports the
// fleet).
func (rp *Replica) resilienceSnapshot() *service.FleetResilienceSnapshot {
	snap := &service.FleetResilienceSnapshot{BreakerStates: make(map[string]string)}
	rp.mu.Lock()
	for id, p := range rp.peers {
		st := p.br.stats()
		snap.BreakerStates[id] = st.state
		snap.BreakerOpens += st.opens
		snap.BreakerHalfOpens += st.halfOpens
		snap.BreakerCloses += st.closes
		snap.BreakerSkips += st.skips
	}
	rp.mu.Unlock()
	snap.HedgesFired = rp.hedgesFired.Load()
	snap.HedgeLocalWins = rp.hedgeLocalWins.Load()
	snap.HedgeForwardWins = rp.hedgeForwardWins.Load()
	if snap.HedgesFired > 0 {
		snap.HedgeWinRatio = float64(snap.HedgeLocalWins) / float64(snap.HedgesFired)
	}
	snap.BudgetExhausted = rp.budgetExhausted.Load()
	snap.BudgetRefused = rp.budgetRefused.Load()
	return snap
}

// Status snapshots the replica's fleet view.
func (rp *Replica) Status() FleetzStatus {
	st := FleetzStatus{
		Replica: rp.id,
		Ready:   rp.Ready(),
		Joined:  rp.joined.Load(),
		AEDone:  rp.aeDone.Load(),
		Ring:    rp.RingMembers(),

		Forwards:        rp.forwards.Load(),
		ForwardErrors:   rp.forwardErrors.Load(),
		LocalFallbacks:  rp.localFallbacks.Load(),
		ForwardedServed: rp.forwardedServed.Load(),
		AERounds:        rp.aeRounds.Load(),
		AEPulled:        rp.aePulled.Load(),
		AEJournalRounds: rp.aeJournalRounds.Load(),
		AEJournalHoles:  rp.aeJournalHoles.Load(),
	}
	res := rp.resilienceSnapshot()
	st.Breakers = res.BreakerStates
	st.BreakerOpens = res.BreakerOpens
	st.BreakerHalfOpens = res.BreakerHalfOpens
	st.BreakerCloses = res.BreakerCloses
	st.BreakerSkips = res.BreakerSkips
	st.HedgesFired = res.HedgesFired
	st.HedgeLocalWins = res.HedgeLocalWins
	st.HedgeForwardWins = res.HedgeForwardWins
	st.BudgetExhausted = res.BudgetExhausted
	st.BudgetRefused = res.BudgetRefused
	if svc := rp.Service(); svc != nil {
		st.CacheHits, st.CacheMisses = svc.CacheStats()
		st.JournalLastSeq = svc.JournalLastSeq()
	}
	return st
}

func (rp *Replica) handleFleetz(w http.ResponseWriter) {
	writeFleetJSON(w, http.StatusOK, rp.Status())
}
