package fleet

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/service"
)

// Reply validation is the semantic tier above the frame codec: a
// well-framed reply whose declared fields cannot be honest is an error
// (and a breaker-counted failure at the call site), never a wedge.
func TestValidateReply(t *testing.T) {
	forward := rpcRequest{Op: "forward"}
	digest := rpcRequest{Op: "digest"}
	journal := rpcRequest{Op: "journal", Since: 40}
	cases := []struct {
		name    string
		req     rpcRequest
		reply   rpcReply
		wantErr bool
	}{
		{"forward ok", forward, rpcReply{OK: true, Status: 200, Body: []byte(`{"ok":true}`)}, false},
		{"forward 4xx ok", forward, rpcReply{OK: true, Status: 429, Body: []byte(`{"error":"busy"}`)}, false},
		{"forward budget-exhausted carries no status", forward, rpcReply{OK: true, BudgetExhausted: true}, false},
		{"forward status below range", forward, rpcReply{OK: true, Status: 42}, true},
		{"forward status above range", forward, rpcReply{OK: true, Status: 999}, true},
		{"forward truncated body", forward, rpcReply{OK: true, Status: 200, Body: []byte(`{"truncated`)}, true},
		{"forward empty body ok", forward, rpcReply{OK: true, Status: 204}, false},
		{"not-ok reply is the peer's honest error", forward, rpcReply{OK: false, Err: "down"}, false},
		{"digest ok", digest, rpcReply{OK: true, Entries: 12}, false},
		{"digest negative entries", digest, rpcReply{OK: true, Entries: -7}, true},
		{"digest entry flood", digest, rpcReply{OK: true, Entries: maxReplyEntries + 1}, true},
		{"journal ok", journal, rpcReply{OK: true, Entries: 3, Next: 43}, false},
		{"journal cursor regression", journal, rpcReply{OK: true, Entries: 0, Next: 39}, true},
		{"journal hole may rewind", journal, rpcReply{OK: true, Hole: true, Next: 7}, false},
		{"oversized body", forward, rpcReply{OK: true, Status: 200, Body: make([]byte, maxRPCFrameBytes+1)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateReply(tc.req, tc.reply)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateReply = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// An owner refuses a forward whose remaining deadline budget is below
// the floor — budget_exhausted, no compute — and honors a workable
// budget as its deadline.
func TestHandleForwardBudgetFloor(t *testing.T) {
	f := testFleet(t, 1, nil)
	rp := f.Replica(0)
	body := []byte(fmt.Sprintf(`{"source": %q}`, tinyProgram(0)))

	reply := rp.handleForward(rpcRequest{Op: "forward", Path: "/v1/lint", Body: body, TimeoutMS: 1})
	if !reply.OK || !reply.BudgetExhausted {
		t.Fatalf("1ms budget: reply = %+v, want OK budget-exhausted refusal", reply)
	}
	if got := rp.budgetRefused.Load(); got != 1 {
		t.Fatalf("budgetRefused = %d, want 1", got)
	}

	reply = rp.handleForward(rpcRequest{Op: "forward", Path: "/v1/lint", Body: body, TimeoutMS: 5_000})
	if !reply.OK || reply.BudgetExhausted || reply.Status != http.StatusOK {
		t.Fatalf("5s budget: reply status = %d (exhausted=%v), want 200", reply.Status, reply.BudgetExhausted)
	}
}

// End to end: a routed request that arrives at the non-owner with less
// budget than the owner's floor still gets an answer — the owner
// refuses, the entry serves locally — and both sides count it.
func TestFleetBudgetPropagation(t *testing.T) {
	f := testFleet(t, 2, nil)
	body := service.LintRequest{Source: tinyProgram(1), TimeoutMS: 3}
	for round := 0; round < 4; round++ {
		for i, addr := range f.HTTPAddrs() {
			resp, raw := postTo(t, addr, "/v1/lint", body, "")
			if resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("replica %d: status %d: %s", i, resp.StatusCode, raw)
			}
		}
	}
	var exhausted, refused int64
	for i := 0; i < f.Replicas(); i++ {
		st := f.Replica(i).Status()
		exhausted += st.BudgetExhausted
		refused += st.BudgetRefused
	}
	if exhausted == 0 || refused == 0 {
		t.Fatalf("budget counters: exhausted=%d refused=%d, want both > 0", exhausted, refused)
	}
}

// A hedged forward is a race with exactly one winner. With every
// peer's data plane slowed far past the hedge delay, local compute
// must win every race the entry replica starts, and the slow forward
// keeps running in the background (it feeds the latency tracker) —
// the response the client sees is the local one.
func TestFleetHedgedForwardLocalWins(t *testing.T) {
	f := testFleet(t, 2, func(c *Config) {
		c.HedgeDelay = 8 * time.Millisecond
	})
	for i := 0; i < f.Replicas(); i++ {
		f.SlowReplica(i, 150*time.Millisecond)
	}
	body := service.SelfStabRequest{Source: tinyProgram(2), TimeoutMS: 30_000}
	for i, addr := range f.HTTPAddrs() {
		resp, raw := postTo(t, addr, "/v1/selfstab", body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status %d: %s", i, resp.StatusCode, raw)
		}
		// The local winner serves the response, so no forward-owner
		// header may be stamped on it.
		if owner := resp.Header.Get("X-Fleet-Owner"); owner != "" {
			t.Fatalf("replica %d: hedged response claims forward owner %s", i, owner)
		}
	}
	var fired, localWins, forwardWins int64
	for i := 0; i < f.Replicas(); i++ {
		st := f.Replica(i).Status()
		fired += st.HedgesFired
		localWins += st.HedgeLocalWins
		forwardWins += st.HedgeForwardWins
	}
	if fired == 0 {
		t.Fatal("no hedge fired against a 150ms-slow owner with an 8ms hedge delay")
	}
	if localWins != fired || forwardWins != 0 {
		t.Fatalf("hedge wins: fired=%d local=%d forward=%d, want local to win every race", fired, localWins, forwardWins)
	}
}

// With a healthy fast owner, every fired hedge still resolves to
// exactly one winner — whichever side it is — and the client sees one
// coherent 200.
func TestFleetHedgedForwardSingleWinner(t *testing.T) {
	f := testFleet(t, 2, func(c *Config) {
		c.HedgeDelay = time.Nanosecond // race from the first instant
	})
	body := service.SelfStabRequest{Source: tinyProgram(0), TimeoutMS: 30_000}
	for i, addr := range f.HTTPAddrs() {
		resp, raw := postTo(t, addr, "/v1/selfstab", body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	var fired, localWins, forwardWins int64
	for i := 0; i < f.Replicas(); i++ {
		st := f.Replica(i).Status()
		fired += st.HedgesFired
		localWins += st.HedgeLocalWins
		forwardWins += st.HedgeForwardWins
	}
	if fired == 0 {
		t.Fatal("no hedge fired with a nanosecond hedge delay")
	}
	if localWins+forwardWins != fired {
		t.Fatalf("hedge races: fired=%d local=%d forward=%d, want exactly one winner per race",
			fired, localWins, forwardWins)
	}
}

// When the forward fails after the hedge fired, the local racer is the
// only answer left and so the race's winner: fired == local + forward
// holds on this path too. The owner answers garbage 20 ms after the
// forward arrives, long after the 1 ms hedge delay and long before
// local compute finishes on a 3^12-state ring, so every run takes the
// forward-failed branch.
func TestFleetHedgeForwardFailureCountsLocalWin(t *testing.T) {
	f := testFleet(t, 2, func(c *Config) {
		c.HedgeDelay = time.Millisecond
	})
	for i := 0; i < f.Replicas(); i++ {
		f.SlowReplica(i, 20*time.Millisecond)
		f.GarbageReplica(i, true)
	}
	body := service.SelfStabRequest{Source: ring.Dijkstra3GCL(11), TimeoutMS: 120_000}
	for i, addr := range f.HTTPAddrs() {
		resp, raw := postTo(t, addr, "/v1/selfstab", body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	var sum FleetzStatus
	for i := 0; i < f.Replicas(); i++ {
		st := f.Replica(i).Status()
		sum.HedgesFired += st.HedgesFired
		sum.HedgeLocalWins += st.HedgeLocalWins
		sum.HedgeForwardWins += st.HedgeForwardWins
		sum.ForwardErrors += st.ForwardErrors
		sum.LocalFallbacks += st.LocalFallbacks
	}
	if sum.HedgesFired != 1 || sum.ForwardErrors != 1 || sum.LocalFallbacks != 1 {
		t.Fatalf("fired=%d forward_errors=%d local_fallbacks=%d, want one hedged forward that failed",
			sum.HedgesFired, sum.ForwardErrors, sum.LocalFallbacks)
	}
	if sum.HedgeLocalWins != 1 || sum.HedgeForwardWins != 0 {
		t.Fatalf("hedge wins: local=%d forward=%d, want the local racer counted as the one winner",
			sum.HedgeLocalWins, sum.HedgeForwardWins)
	}
}

// A hostile peer that answers data-plane RPCs with garbage costs the
// fleet forwards, never availability: validation turns each reply into
// a local fallback, the breaker opens after the configured streak, and
// every client request is still a 200.
func TestFleetGarbageReplyFallsBackLocally(t *testing.T) {
	f := testFleet(t, 2, nil)
	f.GarbageReplica(1, true)
	for i := 0; i < 12; i++ {
		body := service.LintRequest{Source: tinyProgram(i), TimeoutMS: 30_000}
		resp, raw := postTo(t, f.HTTPAddrs()[0], "/v1/lint", body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	st := f.Replica(0).Status()
	if st.LocalFallbacks == 0 {
		t.Fatal("no forward fell back locally despite a garbage-talking owner")
	}
	if st.BreakerOpens == 0 {
		t.Fatalf("breaker never opened against the garbage peer (fallbacks=%d)", st.LocalFallbacks)
	}
}

// A flapping peer is carried by the heartbeat state machine alone: the
// observer's stream for it is exactly suspected → recovered per flap,
// the rings re-converge after the last restart, and traffic running
// across the flaps sees no 5xx. Forwards to the downed owner fall back
// locally; a request entering at the flapper as it crashes sees a
// dropped connection and retries on the survivor. Two workers at 1 ms
// pace keep a request in flight at most crash instants, which is what
// exposes a crash that answers 503 instead of dropping the connection.
func TestFleetFlapSequence(t *testing.T) {
	f := testFleet(t, 2, func(c *Config) {
		c.HeartbeatInterval = 15 * time.Millisecond
	})
	observer, flapper := f.Replica(0).ID(), f.Replica(1).ID()

	type loadResult struct {
		rep *LoadgenReport
		err error
	}
	loadc := make(chan loadResult, 1)
	go func() {
		rep, err := RunLoadgen(context.Background(), LoadgenConfig{
			Addrs:       f.HTTPAddrs(),
			Requests:    2000,
			Warmup:      1,
			Programs:    6,
			Seed:        11,
			Concurrency: 2,
			Pace:        time.Millisecond,
		})
		loadc <- loadResult{rep, err}
	}()

	await := func(kind string, after int, why string) int {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, e := range f.Events() {
				if e.Seq > after && e.Kind == kind && e.Replica == flapper {
					return e.Seq
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("%s: no %s event for %s", why, kind, flapper)
		return 0
	}

	seq := 0
	var want []string
	for i := 0; i < 3; i++ {
		f.CrashReplica(1)
		seq = await(KindReplicaSuspected, seq, fmt.Sprintf("flap %d", i+1))
		if err := f.RestartReplica(1); err != nil {
			t.Fatalf("restart %d: %v", i+1, err)
		}
		seq = await(KindReplicaRecovered, seq, fmt.Sprintf("flap %d", i+1))
		want = append(want, KindReplicaSuspected, KindReplicaRecovered)
	}
	select {
	case <-loadc:
		t.Fatal("loadgen finished before the last flap; traffic did not span the flaps")
	default:
	}
	if !f.AwaitConverged(5 * time.Second) {
		t.Fatal("rings did not re-converge after the last restart")
	}

	var got []string
	for _, e := range f.Events() {
		if e.Replica != flapper || e.Observer != observer {
			continue
		}
		switch e.Kind {
		case KindReplicaSuspected, KindReplicaRecovered:
			got = append(got, e.Kind)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("event stream %v, want %v", got, want)
	}

	res := <-loadc
	if res.err != nil {
		t.Fatalf("loadgen: %v", res.err)
	}
	if res.rep.ServerErr5x != 0 || res.rep.Status["error"] != 0 {
		t.Fatalf("traffic across the flaps saw failures: 5xx=%d status=%v", res.rep.ServerErr5x, res.rep.Status)
	}
}
