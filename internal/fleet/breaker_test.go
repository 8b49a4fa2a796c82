package fleet

import (
	"testing"
	"time"
)

// fakeClock is an injected breaker clock: tests advance it explicitly,
// so every hold expiry is exact and no test sleeps.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testBreaker builds a breaker on the fake clock with a fixed seed, so
// the jittered holds are reproducible run to run.
func testBreaker(clk *fakeClock, failures int, cooldown time.Duration) *breaker {
	b := newBreaker(failures, cooldown, 7)
	b.now = clk.now
	return b
}

// The breaker state machine, table-driven: each case is a script of
// operations against a fresh breaker and the state it must land in.
func TestBreakerStateMachine(t *testing.T) {
	const cooldown = 100 * time.Millisecond
	// maxHold bounds any single hold in these scripts: base cooldown,
	// doubled per re-open up to the shift cap, plus 25% jitter.
	maxHold := time.Duration(float64(cooldown<<breakerMaxBackoffShift) * 1.25)

	type step struct {
		op  string        // "fail", "ok", "allow", "deny", "advance"
		rtt time.Duration // for "ok"
		d   time.Duration // for "advance"
	}
	cases := []struct {
		name     string
		failures int
		steps    []step
		want     string
	}{
		{
			name: "closed survives sub-threshold failures", failures: 3,
			steps: []step{{op: "fail"}, {op: "fail"}, {op: "allow"}},
			want:  breakerClosed,
		},
		{
			name: "consecutive failures trip open", failures: 3,
			steps: []step{{op: "fail"}, {op: "fail"}, {op: "fail"}, {op: "deny"}},
			want:  breakerOpen,
		},
		{
			name: "a success resets the failure count", failures: 2,
			steps: []step{{op: "fail"}, {op: "ok", rtt: time.Millisecond}, {op: "fail"}, {op: "allow"}},
			want:  breakerClosed,
		},
		{
			name: "hold expiry admits one half-open probe", failures: 1,
			steps: []step{{op: "fail"}, {op: "advance", d: maxHold}, {op: "allow"}, {op: "deny"}},
			want:  breakerHalfOpen,
		},
		{
			name: "probe success closes", failures: 1,
			steps: []step{{op: "fail"}, {op: "advance", d: maxHold}, {op: "allow"}, {op: "ok", rtt: time.Millisecond}, {op: "allow"}},
			want:  breakerClosed,
		},
		{
			name: "probe failure re-opens", failures: 1,
			steps: []step{{op: "fail"}, {op: "advance", d: maxHold}, {op: "allow"}, {op: "fail"}, {op: "deny"}},
			want:  breakerOpen,
		},
		{
			name: "re-open doubles the hold", failures: 1,
			steps: []step{
				{op: "fail"}, // streak 1: hold ∈ [c, 1.25c]
				{op: "advance", d: maxHold},
				{op: "allow"}, {op: "fail"}, // streak 2: hold ∈ [2c, 2.5c]
				{op: "advance", d: cooldown}, // one base cooldown is not enough now
				{op: "deny"},
			},
			want: breakerOpen,
		},
		{
			name: "disabled gating never trips", failures: -1,
			steps: []step{{op: "fail"}, {op: "fail"}, {op: "fail"}, {op: "fail"}, {op: "allow"}},
			want:  breakerClosed,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			b := testBreaker(clk, tc.failures, cooldown)
			for i, s := range tc.steps {
				switch s.op {
				case "fail":
					b.failure()
				case "ok":
					b.success(s.rtt)
				case "advance":
					clk.advance(s.d)
				case "allow", "deny":
					got, _ := b.allow()
					if want := s.op == "allow"; got != want {
						t.Fatalf("step %d: allow() = %v, want %v (state %s)", i, got, want, b.currentState())
					}
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
			}
			if got := b.currentState(); got != tc.want {
				t.Fatalf("final state %s, want %s", got, tc.want)
			}
		})
	}
}

// A trip clears the latency window: the hedge delay toward a peer that
// just tripped goes back to the cold default instead of being derived
// from the sick round trips, and a fresh sample floor re-derives it.
func TestBreakerTripClearsLatencyWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(clk, 3, 100*time.Millisecond)
	for i := 0; i < breakerSamples; i++ {
		b.success(100 * time.Millisecond)
	}
	if got := b.hedgeDelay(); got != hedgeDelayCap {
		t.Fatalf("slow-peer hedge delay = %v, want cap %v", got, hedgeDelayCap)
	}
	for i := 0; i < 3; i++ {
		b.failure()
	}
	if got := b.currentState(); got != breakerOpen {
		t.Fatalf("state after 3 failures = %s, want open", got)
	}
	if got := b.hedgeDelay(); got != hedgeDelayCold {
		t.Fatalf("hedge delay after trip = %v, want cold %v", got, hedgeDelayCold)
	}
	clk.advance(time.Second)
	if ok, _ := b.allow(); !ok {
		t.Fatal("hold expired but probe refused")
	}
	for i := 0; i < hedgeMinSamples; i++ {
		b.success(time.Millisecond)
	}
	if got := b.hedgeDelay(); got != hedgeDelayFloor {
		t.Fatalf("recovered-peer hedge delay = %v, want floor %v", got, hedgeDelayFloor)
	}
}

// Breaker events carry the transition story the monitor emits.
func TestBreakerEvents(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(clk, 1, 100*time.Millisecond)

	evs := b.failure()
	if len(evs) != 1 || evs[0].kind != KindBreakerOpen {
		t.Fatalf("trip events = %+v, want one %s", evs, KindBreakerOpen)
	}
	clk.advance(time.Second)
	_, evs = b.allow()
	if len(evs) != 1 || evs[0].kind != KindBreakerHalfOpen {
		t.Fatalf("probe-admit events = %+v, want one %s", evs, KindBreakerHalfOpen)
	}
	evs = b.success(time.Millisecond)
	if len(evs) != 1 || evs[0].kind != KindBreakerClosed {
		t.Fatalf("probe-success events = %+v, want one %s", evs, KindBreakerClosed)
	}
	st := b.stats()
	if st.opens != 1 || st.halfOpens != 1 || st.closes != 1 {
		t.Fatalf("stats = %+v, want opens=1 halfOpens=1 closes=1", st)
	}
}

// The hedge delay is derived from the same tracker: cold default before
// the sample floor, 2×p95 clamped to [floor, cap] after.
func TestBreakerHedgeDelay(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(clk, 3, 100*time.Millisecond)
	if got := b.hedgeDelay(); got != hedgeDelayCold {
		t.Fatalf("cold hedge delay = %v, want %v", got, hedgeDelayCold)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		b.success(time.Millisecond) // 2×p95 = 2ms, below the floor
	}
	if got := b.hedgeDelay(); got != hedgeDelayFloor {
		t.Fatalf("fast-peer hedge delay = %v, want floor %v", got, hedgeDelayFloor)
	}
	for i := 0; i < breakerSamples; i++ {
		b.success(100 * time.Millisecond) // 2×p95 = 200ms, above the cap
	}
	if got := b.hedgeDelay(); got != hedgeDelayCap {
		t.Fatalf("slow-peer hedge delay = %v, want cap %v", got, hedgeDelayCap)
	}
	var nilBreaker *breaker
	if got := nilBreaker.hedgeDelay(); got != hedgeDelayCold {
		t.Fatalf("nil breaker hedge delay = %v, want cold %v", got, hedgeDelayCold)
	}
}

// Open-state refusals are counted: every skip is a dial the request
// did not pay.
func TestBreakerSkipsCounted(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(clk, 1, time.Hour)
	b.failure()
	for i := 0; i < 3; i++ {
		if ok, _ := b.allow(); ok {
			t.Fatal("open breaker allowed a call inside its hold")
		}
	}
	if st := b.stats(); st.skips != 3 {
		t.Fatalf("skips = %d, want 3", st.skips)
	}
}
