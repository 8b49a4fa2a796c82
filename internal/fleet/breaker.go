package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Per-peer circuit breaker: the failure-domain boundary between one
// replica and one peer. A peer that fails forwards consecutively trips
// its breaker open, and routed requests skip straight to local compute
// instead of paying the dial-and-timeout tax on every hop. After a
// seeded exponential backoff the breaker goes half-open and admits
// exactly one probe; a probe success closes it, a probe failure
// re-opens it with a doubled hold. The breaker also keeps the peer's
// latency tracker, from which the hedge delay (hedge.go) is derived.

// Breaker state names, as reported by /fleetz and /metrics.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

const (
	// breakerSamples is the per-peer latency ring size. 64 round trips
	// of memory is enough for a stable p95 and cheap to sort.
	breakerSamples = 64
	// hedgeMinSamples gates the derived hedge delay: below it a p95 is
	// one unlucky round trip, not the peer's latency.
	hedgeMinSamples = 4
	// breakerMaxBackoffShift caps the open→half-open hold doubling at
	// 16× the base cooldown.
	breakerMaxBackoffShift = 4

	// hedgeDelayCold is the hedge delay before the tracker has enough
	// samples to derive one.
	hedgeDelayCold = 25 * time.Millisecond
	// hedgeDelayFloor / hedgeDelayCap clamp the derived delay: below
	// the floor hedging doubles steady-state load for nothing, and a
	// delay derived from an already-sick peer must not grow past the
	// cap or the hedge would never fire in time to help.
	hedgeDelayFloor = 5 * time.Millisecond
	hedgeDelayCap   = 40 * time.Millisecond
)

// wallNow reads the wall clock for fleet I/O pacing. Every wall-clock
// read the fleet's data plane makes funnels through here, so the
// detrand waiver below is the package's single one for request-path
// time (breakers themselves take an injected clock for tests).
func wallNow() time.Time {
	return time.Now() //gcvet:detrand-ok real I/O pacing (breaker holds, deadline budgets, hedge delays) on live TCP replicas
}

// breakerEvent is a state transition for the monitor; the caller owns
// the peer id and observer.
type breakerEvent struct {
	kind   string
	detail string
}

// breakerStats is a point-in-time counter snapshot.
type breakerStats struct {
	state     string
	opens     int64
	halfOpens int64
	closes    int64
	skips     int64
}

// breaker is one peer's circuit breaker plus its latency tracker. All
// methods are nil-safe so call sites need no peer-existence ceremony.
type breaker struct {
	failures int           // consecutive failures that trip it; <= 0 disables gating
	cooldown time.Duration // base open→half-open hold
	now      func() time.Time
	rng      *rand.Rand // seeded jitter; guarded by mu

	mu          sync.Mutex
	state       string
	consecFails int
	streak      int // consecutive opens without an intervening close, for backoff
	until       time.Time
	probing     bool // a half-open probe is in flight

	lat    [breakerSamples]time.Duration
	latN   int // samples held (≤ breakerSamples)
	latIdx int // next write position

	opens     int64
	halfOpens int64
	closes    int64
	skips     int64
}

// newBreaker builds one peer's breaker. A non-positive failures
// threshold disables gating; the latency tracker runs regardless.
func newBreaker(failures int, cooldown time.Duration, seed int64) *breaker {
	return &breaker{
		failures: failures,
		cooldown: cooldown,
		now:      wallNow,
		rng:      rand.New(rand.NewSource(seed)),
		state:    breakerClosed,
	}
}

// allow reports whether a call to the peer may proceed. An open breaker
// whose hold expired transitions to half-open and admits the caller as
// the single probe; an open (or probing half-open) breaker refuses, and
// the caller should go straight to local compute.
func (b *breaker) allow() (bool, []breakerEvent) {
	if b == nil || b.failures <= 0 {
		return true, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Before(b.until) {
			b.skips++
			return false, nil
		}
		b.state = breakerHalfOpen
		b.halfOpens++
		b.probing = true
		return true, []breakerEvent{{KindBreakerHalfOpen, "hold expired; probing"}}
	case breakerHalfOpen:
		if b.probing {
			b.skips++
			return false, nil
		}
		b.probing = true
		return true, nil
	}
	return true, nil
}

// success records one completed round trip. It always feeds the latency
// tracker (hedge delays want samples even with gating disabled); with
// gating enabled it resets the failure count and closes a half-open
// breaker.
func (b *breaker) success(rtt time.Duration) []breakerEvent {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.recordLocked(rtt)
	if b.failures <= 0 {
		return nil
	}
	b.consecFails = 0
	if b.state != breakerHalfOpen {
		return nil
	}
	b.state = breakerClosed
	b.probing = false
	b.streak = 0
	b.closes++
	return []breakerEvent{{KindBreakerClosed, "probe succeeded"}}
}

// failure records one failed call: a failed probe re-opens immediately,
// and the configured number of consecutive closed-state failures trips
// the breaker.
func (b *breaker) failure() []breakerEvent {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures <= 0 {
		return nil
	}
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		return b.tripLocked("probe failed")
	case breakerClosed:
		b.consecFails++
		if b.consecFails >= b.failures {
			return b.tripLocked(fmt.Sprintf("%d consecutive failures", b.consecFails))
		}
	}
	// Open: a background (hedged) call finishing late; the trip already
	// accounted for this peer.
	return nil
}

// tripLocked opens the breaker: exponential hold with seeded jitter,
// and the latency window cleared so the hedge delay a recovered peer
// gets is derived from its fresh round trips, not the sick ones.
func (b *breaker) tripLocked(why string) []breakerEvent {
	b.state = breakerOpen
	b.consecFails = 0
	b.probing = false
	b.opens++
	b.streak++
	shift := b.streak - 1
	if shift > breakerMaxBackoffShift {
		shift = breakerMaxBackoffShift
	}
	hold := b.cooldown << shift
	if jitter := int64(hold) / 4; jitter > 0 {
		hold += time.Duration(b.rng.Int63n(jitter))
	}
	b.until = b.now().Add(hold)
	b.latN = 0
	b.latIdx = 0
	return []breakerEvent{{KindBreakerOpen, why}}
}

// recordLocked appends one latency sample to the ring.
func (b *breaker) recordLocked(rtt time.Duration) {
	b.lat[b.latIdx] = rtt
	b.latIdx = (b.latIdx + 1) % breakerSamples
	if b.latN < breakerSamples {
		b.latN++
	}
}

// quantileLocked returns the q-quantile of the held samples (nearest
// rank on a sorted copy); zero with no samples.
func (b *breaker) quantileLocked(q float64) time.Duration {
	if b.latN == 0 {
		return 0
	}
	sorted := b.lat // array copy: sorted on the stack, no allocation
	slices.Sort(sorted[:b.latN])
	i := int(q * float64(b.latN))
	if i >= b.latN {
		i = b.latN - 1
	}
	return sorted[i]
}

// hedgeDelay derives how long a forward to this peer may be in flight
// before local compute races it: twice the observed p95, clamped.
func (b *breaker) hedgeDelay() time.Duration {
	if b == nil {
		return hedgeDelayCold
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.latN < hedgeMinSamples {
		return hedgeDelayCold
	}
	d := 2 * b.quantileLocked(0.95)
	if d < hedgeDelayFloor {
		d = hedgeDelayFloor
	}
	if d > hedgeDelayCap {
		d = hedgeDelayCap
	}
	return d
}

// reset returns the breaker to cold closed state (replica restart).
func (b *breaker) reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.consecFails = 0
	b.streak = 0
	b.until = time.Time{}
	b.probing = false
	b.latN = 0
	b.latIdx = 0
}

// currentState returns the breaker's state name.
func (b *breaker) currentState() string {
	if b == nil {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// stats snapshots the lifetime transition counters.
func (b *breaker) stats() breakerStats {
	if b == nil {
		return breakerStats{state: breakerClosed}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStats{
		state:     b.state,
		opens:     b.opens,
		halfOpens: b.halfOpens,
		closes:    b.closes,
		skips:     b.skips,
	}
}
