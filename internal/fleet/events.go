package fleet

// Event kind registry: the closed vocabulary of the fleet's
// control-plane event stream. Campaign judges and the loadgen report
// match on these strings, and gcvet's eventkind analyzer rejects
// inline literals so a typo cannot mint an unmatchable kind.
const (
	// KindReplicaJoined marks a replica entering the membership ring.
	KindReplicaJoined = "replica-joined"
	// KindReplicaLeft marks a graceful departure.
	KindReplicaLeft = "replica-left"
	// KindReplicaSuspected marks an observer removing a silent peer
	// from its ring view after missed heartbeats.
	KindReplicaSuspected = "replica-suspected"
	// KindReplicaRecovered marks an observer re-admitting a peer.
	KindReplicaRecovered = "replica-recovered"
	// KindCrash records a campaign-injected replica crash.
	KindCrash = "crash"
	// KindRestart records a crashed replica coming back.
	KindRestart = "restart"
	// KindPartition records a campaign-injected network cut.
	KindPartition = "partition"
	// KindHeal records a cut being removed.
	KindHeal = "heal"
	// KindAERound records one anti-entropy pull completing.
	KindAERound = "ae-round"
	// KindBreakerOpen marks a peer's circuit breaker tripping open
	// after consecutive failures.
	KindBreakerOpen = "breaker-open"
	// KindBreakerHalfOpen marks an open breaker's hold expiring and a
	// single probe being admitted.
	KindBreakerHalfOpen = "breaker-half-open"
	// KindBreakerClosed marks a half-open probe succeeding and the
	// breaker closing.
	KindBreakerClosed = "breaker-closed"
	// KindSlowPeer records a campaign-injected data-plane latency fault
	// (gray failure: pings stay fast, forwards drag).
	KindSlowPeer = "slow-peer"
	// KindGarbageReply records a campaign-injected hostile-reply fault:
	// well-framed RPC replies with out-of-range fields.
	KindGarbageReply = "garbage-reply"
	// KindAsymPartition records a campaign-injected one-way cut: A's
	// calls to B fail while B's calls to A still succeed.
	KindAsymPartition = "asym-partition"
)
