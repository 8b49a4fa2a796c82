package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// Config sizes a fleet. Zero values mean "use the default".
type Config struct {
	// Replicas is the number of checkd replicas (default 3).
	Replicas int
	// Service configures each replica's underlying service.Server.
	// CachePath must be empty — replicas do not share a snapshot file —
	// and so must JournalPath/JournalBackend: set Journal instead and
	// the fleet manages one backend per replica.
	Service service.Config
	// Journal event-sources every replica: each gets its own journal
	// backend, held by the fleet so it survives CrashReplica/
	// RestartReplica — a restarted replica replays its own history
	// instead of coming back cold. Anti-entropy then ships journal
	// suffixes (incremental, cursor-addressed) instead of full key
	// digests, falling back to digest mode against any peer without a
	// journal.
	Journal bool
	// HeartbeatInterval paces membership pings (default 75ms).
	HeartbeatInterval time.Duration
	// AntiEntropyInterval paces cache sync rounds (default 250ms;
	// negative disables the loop — rounds run only via
	// AntiEntropyRound, and readiness does not wait for one).
	AntiEntropyInterval time.Duration
	// BreakerFailures is how many consecutive failed calls trip a
	// peer's circuit breaker open (default 3; negative disables
	// breakers — the PR-6 timeout-then-fallback behavior).
	BreakerFailures int
	// HedgeDelay is how long a forward may be in flight before local
	// compute races it: 0 derives a per-peer delay from the latency
	// tracker, > 0 fixes it, negative disables hedging.
	HedgeDelay time.Duration
	// Logf, when non-nil, receives fleet and per-replica job log lines.
	// It must be safe for concurrent use.
	Logf func(format string, args ...any)
}

const (
	// vnodes is the consistent-hash points per replica.
	vnodes = 64
	// suspectAfter is how many consecutive heartbeat misses make a peer
	// suspected and remove it from the ring.
	suspectAfter = 3
	// forwardTimeout bounds one forward or anti-entropy RPC.
	forwardTimeout = 10 * time.Second
	// maxPullPerRound caps entries pulled per anti-entropy round.
	maxPullPerRound = 256
	// breakerCooldown is the base open→half-open hold, doubled per
	// consecutive open up to 16× with seeded jitter.
	breakerCooldown = 400 * time.Millisecond
	// breakerSeed seeds the breaker jitter RNGs.
	breakerSeed = 1
)

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 75 * time.Millisecond
	}
	if c.AntiEntropyInterval == 0 {
		c.AntiEntropyInterval = 250 * time.Millisecond
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	return c
}

// Fleet runs N replicas as one logical service on loopback listeners.
// Construct with New, dispose with Close. Fault methods (CrashReplica,
// RestartReplica, Partition, Heal) are how the chaos campaign engine —
// and tests — batter the fleet.
type Fleet struct {
	cfg      Config
	mon      *Monitor
	replicas []*Replica
}

// New starts a fleet: every replica gets an HTTP listener, an RPC
// listener, a fresh service.Server, and the full static member set in
// its ring; then the membership and anti-entropy loops start.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Service.CachePath != "" {
		return nil, fmt.Errorf("fleet: Service.CachePath must be empty (replicas cannot share one snapshot file)")
	}
	if cfg.Service.JournalPath != "" || cfg.Service.JournalBackend != nil {
		return nil, fmt.Errorf("fleet: Service journal fields must be empty (set Config.Journal; the fleet manages per-replica backends)")
	}
	f := &Fleet{cfg: cfg, mon: NewMonitor()}

	// Bind every listener first, so peer address books are complete
	// before any replica starts heartbeating.
	for i := 0; i < cfg.Replicas; i++ {
		rp := &Replica{id: fmt.Sprintf("r%d", i), idx: i, f: f}
		if cfg.Journal {
			// Fleet-held, so it outlives the replica's incarnations.
			rp.journal = journal.NewMemBackend(nil)
		}
		httpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: http listen: %w", err)
		}
		rpcLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = httpLn.Close()
			f.Close()
			return nil, fmt.Errorf("fleet: rpc listen: %w", err)
		}
		rp.httpAddr = httpLn.Addr().String()
		rp.rpcAddr = rpcLn.Addr().String()
		rp.httpLn = httpLn
		rp.rpcLn = rpcLn
		f.replicas = append(f.replicas, rp)
	}
	for _, rp := range f.replicas {
		rp.peers = make(map[string]*peer, cfg.Replicas-1)
		for _, other := range f.replicas {
			if other.id == rp.id {
				continue
			}
			// Distinct deterministic seed per (observer, peer) edge so
			// breaker backoff jitter never synchronizes across the fleet.
			seed := breakerSeed*int64(cfg.Replicas*cfg.Replicas+1) + int64(rp.idx*cfg.Replicas+other.idx)
			rp.peers[other.id] = &peer{
				id: other.id, addr: other.rpcAddr, client: newPeerClient(other.rpcAddr),
				br: newBreaker(cfg.BreakerFailures, breakerCooldown, seed),
			}
		}
		rp.start(rp.httpLn, rp.rpcLn)
	}
	return f, nil
}

// serviceConfig builds one replica's service configuration.
func (f *Fleet) serviceConfig(rp *Replica) service.Config {
	cfg := f.cfg.Service
	cfg.ResilienceMetrics = rp.resilienceSnapshot
	if rp.journal != nil {
		cfg.JournalBackend = rp.journal
	}
	if f.cfg.Logf != nil {
		id := rp.id
		cfg.Logf = func(format string, args ...any) {
			f.cfg.Logf("fleet "+id+": "+format, args...)
		}
	}
	return cfg
}

func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// start boots one replica incarnation: fresh service, fresh ring view
// holding every non-left member, loops running against a fresh stop
// channel.
func (rp *Replica) start(httpLn, rpcLn net.Listener) {
	svc := service.New(rp.f.serviceConfig(rp))
	ring := NewRing(vnodes)
	ring.Add(rp.id)

	rp.mu.Lock()
	for _, p := range rp.peers {
		p.misses = 0
		p.suspected = false
		// A fresh incarnation starts with a clean opinion of its peers:
		// breakers closed, latency trackers cold.
		p.br.reset()
		// Reset the anti-entropy journal cursor: verdicts pulled cold
		// from this peer were never journaled locally, so a restarted
		// replica must re-pull from the beginning (PutCold makes the
		// overlap idempotent).
		p.journalCursor = 0
		if !p.left {
			ring.Add(p.id)
		}
	}
	rp.svc = svc
	rp.ring = ring
	rp.down = false
	rp.conns = make(map[net.Conn]bool)
	rp.blocked = make(map[string]bool)
	stop := make(chan struct{})
	rp.stop = stop
	rp.httpLn = httpLn
	rp.rpcLn = rpcLn
	rp.httpSrv = &http.Server{Handler: rp}
	rp.mu.Unlock()

	rp.joined.Store(false)
	rp.aeDone.Store(false)

	httpSrv := rp.httpSrv
	//gcvet:leak-ok Serve returns when shutdown() closes httpLn; the listener itself is the stop signal
	go func() { _ = httpSrv.Serve(httpLn) }()
	rp.wg.Add(3)
	go rp.serveRPC(rpcLn, stop)
	go rp.heartbeatLoop(stop)
	go rp.aeLoop(stop)
}

// shutdown stops one replica incarnation. Graceful leaves and crashes
// share it; only the surrounding bookkeeping differs.
func (rp *Replica) shutdown() {
	rp.mu.Lock()
	if rp.down {
		rp.mu.Unlock()
		return
	}
	rp.down = true
	stop := rp.stop
	httpSrv := rp.httpSrv
	rpcLn := rp.rpcLn
	for _, p := range rp.peers {
		p.client.closeIdle()
	}
	rp.mu.Unlock()

	close(stop)
	// Drop every listener and live connection before the service goes:
	// a request caught by the crash must see a dropped connection, which
	// a client retries on another replica, not a "replica is down" 503
	// from a server still accepting on it.
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	if rpcLn != nil {
		_ = rpcLn.Close()
	}
	rp.closeConns()
	rp.mu.Lock()
	svc := rp.svc
	rp.svc = nil
	rp.mu.Unlock()
	if svc != nil {
		svc.Close()
	}
}

// Replicas returns the fleet size (including crashed/stopped members).
func (f *Fleet) Replicas() int { return len(f.replicas) }

// Replica returns the i'th replica.
func (f *Fleet) Replica(i int) *Replica { return f.replicas[i] }

// HTTPAddrs lists every replica's HTTP address in index order.
func (f *Fleet) HTTPAddrs() []string {
	out := make([]string, len(f.replicas))
	for i, rp := range f.replicas {
		out[i] = rp.httpAddr
	}
	return out
}

// Monitor returns the fleet's shared membership monitor.
func (f *Fleet) Monitor() *Monitor { return f.mon }

// Events returns the membership event stream so far.
func (f *Fleet) Events() []Event { return f.mon.Events() }

// AntiEntropyRound runs one round on every live replica in index
// order and returns the total entries pulled. With a negative
// AntiEntropyInterval this is the only way rounds run — deterministic
// harnesses (loadgen -sequential, experiment E19) drive sync
// explicitly instead of racing a ticker.
func (f *Fleet) AntiEntropyRound() int {
	total := 0
	for _, rp := range f.replicas {
		total += rp.AntiEntropyRound()
	}
	return total
}

// live returns the ids of replicas that are up, sorted.
func (f *Fleet) live() []string {
	var out []string
	for _, rp := range f.replicas {
		rp.mu.Lock()
		up := !rp.down && !rp.leftFleet
		rp.mu.Unlock()
		if up {
			out = append(out, rp.id)
		}
	}
	sort.Strings(out)
	return out
}

// Converged reports whether every live replica has joined and agrees
// that the ring is exactly the live member set — the fleet control
// plane's closure predicate.
func (f *Fleet) Converged() bool {
	want := f.live()
	for _, rp := range f.replicas {
		rp.mu.Lock()
		up := !rp.down && !rp.leftFleet
		rp.mu.Unlock()
		if !up {
			continue
		}
		if !rp.joined.Load() {
			return false
		}
		got := rp.RingMembers()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

// AwaitConverged polls Converged until it holds or the deadline
// passes.
func (f *Fleet) AwaitConverged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout) //gcvet:detrand-ok real deadline polling live TCP replicas
	for {
		if f.Converged() {
			return true
		}
		//gcvet:detrand-ok real deadline polling live TCP replicas
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// AwaitReady polls until every live replica reports Ready.
func (f *Fleet) AwaitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout) //gcvet:detrand-ok real deadline polling live TCP replicas
	for {
		ready := true
		for _, rp := range f.replicas {
			rp.mu.Lock()
			up := !rp.down && !rp.leftFleet
			rp.mu.Unlock()
			if up && !rp.Ready() {
				ready = false
				break
			}
		}
		if ready {
			return true
		}
		//gcvet:detrand-ok real deadline polling live TCP replicas
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// CrashReplica kills replica i without ceremony: listeners and live
// connections close, the service dies with its cache. Peers notice by
// heartbeat misses.
func (f *Fleet) CrashReplica(i int) {
	rp := f.replicas[i]
	rp.mu.Lock()
	down := rp.down
	rp.mu.Unlock()
	if down {
		return
	}
	f.mon.emit(KindCrash, rp.id, "", "")
	rp.shutdown()
}

// RestartReplica brings a crashed replica back on its original
// addresses with a cold cache and a fresh ring view. Peers re-admit it
// on the first successful heartbeat; anti-entropy refills its cache.
func (f *Fleet) RestartReplica(i int) error {
	rp := f.replicas[i]
	rp.mu.Lock()
	down := rp.down
	rp.mu.Unlock()
	if !down {
		return nil
	}
	httpLn, err := listenBack(rp.httpAddr)
	if err != nil {
		return fmt.Errorf("fleet: restart %s http: %w", rp.id, err)
	}
	rpcLn, err := listenBack(rp.rpcAddr)
	if err != nil {
		_ = httpLn.Close()
		return fmt.Errorf("fleet: restart %s rpc: %w", rp.id, err)
	}
	f.mon.emit(KindRestart, rp.id, "", "")
	rp.start(httpLn, rpcLn)
	// Tell peers that previously saw a graceful leave the member is back.
	for _, other := range f.replicas {
		if other != rp {
			other.peerReturned(rp.id)
		}
	}
	rp.mu.Lock()
	rp.leftFleet = false
	rp.mu.Unlock()
	return nil
}

// listenBack rebinds an exact address, retrying briefly: the old
// listener's port can linger for a moment after a crash.
func listenBack(addr string) (net.Listener, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, lastErr
}

// StopReplica removes replica i gracefully: it notifies every live
// peer before going dark, so peers drop it immediately instead of
// suspecting it after misses.
func (f *Fleet) StopReplica(i int) {
	rp := f.replicas[i]
	rp.mu.Lock()
	down := rp.down
	rp.mu.Unlock()
	if down {
		return
	}
	for _, p := range rp.allPeers() {
		_, _ = rp.callPeer(p.id, rpcRequest{Op: "leave", From: rp.id}, f.cfg.HeartbeatInterval*2)
	}
	f.mon.emit(KindReplicaLeft, rp.id, "", "graceful")
	rp.shutdown()
	rp.mu.Lock()
	rp.leftFleet = true
	rp.mu.Unlock()
}

// Partition cuts the fleet into two sides by replica index: every
// RPC across the cut fails until Heal. One-sided views are possible
// mid-cut (exactly as on a real network); the suspicion machinery
// shrinks each side's ring to its own island.
func (f *Fleet) Partition(a, b []int) {
	for _, i := range a {
		for _, j := range b {
			f.replicas[i].block(f.replicas[j].id)
			f.replicas[j].block(f.replicas[i].id)
		}
	}
	f.mon.emit(KindPartition, "", "", cutDetail(a, b))
}

// HealCut removes one specific cut (the pairs it blocked), leaving any
// other active cuts in place — overlapping partitions heal
// independently.
func (f *Fleet) HealCut(a, b []int) {
	for _, i := range a {
		for _, j := range b {
			f.replicas[i].unblock(f.replicas[j].id)
			f.replicas[j].unblock(f.replicas[i].id)
		}
	}
	f.mon.emit(KindHeal, "", "", cutDetail(a, b))
}

// Heal removes every partition in the fleet.
func (f *Fleet) Heal() {
	for _, rp := range f.replicas {
		rp.mu.Lock()
		rp.blocked = make(map[string]bool)
		rp.mu.Unlock()
	}
	f.mon.emit(KindHeal, "", "", "")
}

// PartitionOneWay cuts only the a→b direction: every replica in a
// fails its calls to every replica in b (and stops crediting their
// inbound RPCs as liveness), while b still reaches a — the asymmetric
// gray failure where one side's view disagrees with the other's.
func (f *Fleet) PartitionOneWay(a, b []int) {
	for _, i := range a {
		for _, j := range b {
			f.replicas[i].block(f.replicas[j].id)
		}
	}
	f.mon.emit(KindAsymPartition, "", "", cutDetail(a, b))
}

// SlowReplica injects d of latency into every data-plane RPC replica i
// serves (forward, digest, journal) — pings stay fast, so membership
// keeps trusting a replica whose data plane is dragging. d = 0 clears
// the fault. Events are emitted only on an actual change.
func (f *Fleet) SlowReplica(i int, d time.Duration) {
	rp := f.replicas[i]
	old := rp.slowDelay.Swap(int64(d))
	if old == int64(d) {
		return
	}
	if d > 0 {
		f.mon.emit(KindSlowPeer, rp.id, "", fmt.Sprintf("delay=%s", d))
	} else {
		f.mon.emit(KindHeal, rp.id, "", "slow-peer cleared")
	}
}

// GarbageReplica makes replica i answer data-plane RPCs with
// well-framed but semantically hostile replies (hostile = true), or
// clears the fault (hostile = false).
func (f *Fleet) GarbageReplica(i int, hostile bool) {
	rp := f.replicas[i]
	if rp.garbage.Swap(hostile) == hostile {
		return
	}
	if hostile {
		f.mon.emit(KindGarbageReply, rp.id, "", "")
	} else {
		f.mon.emit(KindHeal, rp.id, "", "garbage-reply cleared")
	}
}

func cutDetail(a, b []int) string {
	var sb strings.Builder
	for k, i := range a {
		if k > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "r%d", i)
	}
	sb.WriteByte('|')
	for k, j := range b {
		if k > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "r%d", j)
	}
	return sb.String()
}

// Close shuts every replica down.
func (f *Fleet) Close() {
	for _, rp := range f.replicas {
		rp.shutdown()
	}
	for _, rp := range f.replicas {
		rp.wg.Wait()
	}
}

// mustJSON marshals a value the package itself constructed.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
