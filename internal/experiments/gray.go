package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/fleet"
	"repro/internal/service"
)

// E22GrayFailure is the ninth extension experiment: the fleet's
// failure-domain hardening under gray failures — faults that degrade a
// replica without killing it, so the heartbeat failure detector stays
// green while the data plane rots. A slow replica (injected RPC
// latency) shows what hedged forwards buy: with them, the
// routed-request p99 stays near the hedge delay because local compute
// wins the race; without them (the pre-hardening fleet), every
// forward to the slow owner eats the full injected delay. A hostile
// replica (garbage RPC replies) must cost availability nothing: reply
// validation converts garbage into breaker-counted failures and local
// fallbacks, never a 5xx. Deadline budgets shrink across the forward
// hop, so a request that arrives with less budget than the floor is
// refused by the owner and served locally instead of wedging both
// replicas. Finally, a replica that flaps in and out of suspicion is
// carried by the heartbeat state machine alone: suspected on each
// crash, re-admitted on each restart, and the rings re-converge.
func E22GrayFailure() *Report {
	r := &Report{
		ID:    "E22",
		Title: "Extension: gray-failure hardening — breakers, hedged forwards, deadline budgets",
		Claim: "a slow, hostile, or flapping replica degrades tail latency and nothing else: hedges keep routed p99 near the hedge delay, garbage replies and exhausted budgets become local fallbacks (zero 5xx), and a flapping peer is suspected and re-admitted cleanly",
	}

	const (
		slowDelay = 200 * time.Millisecond
		requests  = 90
		warmup    = 30
		programs  = 8
		seed      = 22
	)

	hardened, hardenedRow := runE22SlowCell("slow owner, hardened", fleet.Config{
		Replicas:            3,
		Service:             service.Config{Workers: 2, QueueDepth: 64},
		AntiEntropyInterval: -1,
		HeartbeatInterval:   25 * time.Millisecond,
		HedgeDelay:          15 * time.Millisecond,
	}, slowDelay, requests, warmup, programs, seed)
	legacy, legacyRow := runE22SlowCell("slow owner, legacy (no breakers, no hedging)", fleet.Config{
		Replicas:            3,
		Service:             service.Config{Workers: 2, QueueDepth: 64},
		AntiEntropyInterval: -1,
		HeartbeatInterval:   25 * time.Millisecond,
		BreakerFailures:     -1,
		HedgeDelay:          -1,
	}, slowDelay, requests, warmup, programs, seed)
	r.Rows = append(r.Rows, hardenedRow, legacyRow)

	if hardened != nil && legacy != nil && hardened.Latency.P99US > 0 {
		ratio := float64(legacy.Latency.P99US) / float64(hardened.Latency.P99US)
		r.Rows = append(r.Rows, Row{
			Name:   "p99 improvement ≥ 5×",
			Detail: fmt.Sprintf("legacy p99=%dµs hardened p99=%dµs ratio=%.1f×", legacy.Latency.P99US, hardened.Latency.P99US, ratio),
			Pass:   ratio >= 5,
		})
	} else {
		r.Rows = append(r.Rows, Row{Name: "p99 improvement ≥ 5×", Detail: "slow cells did not both complete"})
	}

	r.Rows = append(r.Rows, runE22GarbageRow())
	r.Rows = append(r.Rows, runE22BudgetRow())
	r.Rows = append(r.Rows, runE22FlapRow())
	r.Rows = append(r.Rows, runE22CampaignRow())
	return r
}

// runE22SlowCell drives one fleet with replica 1's data-plane RPCs
// slowed by delay and reports the measured routed-traffic percentiles.
// The heartbeat path is deliberately unaffected: the failure detector
// never suspects the slow replica, which is exactly what makes the
// fault gray.
func runE22SlowCell(name string, cfg fleet.Config, delay time.Duration, requests, warmup, programs int, seed int64) (*fleet.LoadgenReport, Row) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, Row{Name: name, Detail: err.Error()}
	}
	defer f.Close()
	if !f.AwaitReady(10 * time.Second) {
		return nil, Row{Name: name, Detail: "fleet never became ready"}
	}
	f.SlowReplica(1, delay)

	rep, err := fleet.RunLoadgen(context.Background(), fleet.LoadgenConfig{
		Addrs:    f.HTTPAddrs(),
		Requests: requests,
		Warmup:   warmup,
		Programs: programs,
		Seed:     seed,
	})
	if err != nil {
		return nil, Row{Name: name, Detail: err.Error()}
	}

	opens, hedges := int64(0), int64(0)
	for i := 0; i < f.Replicas(); i++ {
		st := f.Replica(i).Status()
		opens += st.BreakerOpens
		hedges += st.HedgesFired
	}
	clean := rep.ServerErr5x == 0 && rep.Status["error"] == 0
	detail := fmt.Sprintf("p99=%dµs max=%dµs breaker_opens=%d hedges=%d 5xx=%d",
		rep.Latency.P99US, rep.Latency.MaxUS, opens, hedges, rep.ServerErr5x)
	return rep, Row{Name: name, Detail: detail, Pass: clean}
}

// runE22GarbageRow points a fleet at a hostile replica that answers
// every data-plane RPC with a malformed reply. Reply validation must
// turn each one into a breaker-counted failure and a local fallback —
// the client keeps getting 200s and the breaker opens, so the fleet
// stops asking the liar.
func runE22GarbageRow() Row {
	const name = "garbage replies → local fallback, breaker opens"
	f, err := fleet.New(fleet.Config{
		Replicas:            3,
		Service:             service.Config{Workers: 2, QueueDepth: 64},
		AntiEntropyInterval: -1,
		HeartbeatInterval:   25 * time.Millisecond,
	})
	if err != nil {
		return Row{Name: name, Detail: err.Error()}
	}
	defer f.Close()
	if !f.AwaitReady(10 * time.Second) {
		return Row{Name: name, Detail: "fleet never became ready"}
	}
	f.GarbageReplica(1, true)

	rep, err := fleet.RunLoadgen(context.Background(), fleet.LoadgenConfig{
		Addrs:    f.HTTPAddrs(),
		Requests: 90,
		Warmup:   30,
		Programs: 8,
		Seed:     23,
	})
	if err != nil {
		return Row{Name: name, Detail: err.Error()}
	}
	var opens, fallbacks int64
	for i := 0; i < f.Replicas(); i++ {
		st := f.Replica(i).Status()
		opens += st.BreakerOpens
		fallbacks += st.LocalFallbacks
	}
	clean := rep.ServerErr5x == 0 && rep.Status["error"] == 0
	return Row{
		Name:   name,
		Detail: fmt.Sprintf("5xx=%d errors=%d breaker_opens=%d local_fallbacks=%d", rep.ServerErr5x, rep.Status["error"], opens, fallbacks),
		Pass:   clean && opens > 0 && fallbacks > 0,
	}
}

// runE22BudgetRow sends routed requests whose declared deadline is
// below the owner's budget floor to both replicas of a 2-fleet. The
// non-owner entry must not wedge on the forward: the owner refuses the
// exhausted budget, the entry serves locally, and the budget counters
// record the refusal.
func runE22BudgetRow() Row {
	const name = "deadline budget below floor → refused, served locally"
	f, err := fleet.New(fleet.Config{
		Replicas:            2,
		Service:             service.Config{Workers: 2, QueueDepth: 64},
		AntiEntropyInterval: -1,
		HeartbeatInterval:   25 * time.Millisecond,
	})
	if err != nil {
		return Row{Name: name, Detail: err.Error()}
	}
	defer f.Close()
	if !f.AwaitReady(10 * time.Second) {
		return Row{Name: name, Detail: "fleet never became ready"}
	}

	// The same program posted to both replicas: exactly one entry is the
	// non-owner and must forward — with 3ms of budget, below the 5ms
	// floor the owner honors.
	body := fmt.Sprintf(`{"source": %q, "timeout_ms": 3}`, fleet.LoadgenProgram(0))
	client := &http.Client{Timeout: 5 * time.Second}
	bad := 0
	for round := 0; round < 6; round++ {
		for _, addr := range f.HTTPAddrs() {
			resp, err := client.Post("http://"+addr+"/v1/lint", "application/json", strings.NewReader(body))
			if err != nil {
				bad++
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// 504 is the honest shed for an impossible deadline; any
			// other 5xx is a drop.
			if resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout {
				bad++
			}
		}
	}
	var exhausted, refused int64
	for i := 0; i < f.Replicas(); i++ {
		st := f.Replica(i).Status()
		exhausted += st.BudgetExhausted
		refused += st.BudgetRefused
	}
	return Row{
		Name:   name,
		Detail: fmt.Sprintf("budget_exhausted=%d budget_refused=%d drops=%d", exhausted, refused, bad),
		Pass:   bad == 0 && exhausted > 0 && refused > 0,
	}
}

// runE22FlapRow crashes and restarts one replica of a 2-fleet three
// times. No mechanism beyond the heartbeat state machine handles a
// flapper: each crash must surface as replica-suspected and each
// restart as replica-recovered, and the ring views must re-converge
// after the last one.
func runE22FlapRow() Row {
	const name = "flapping replica suspected and re-admitted ×3, re-converges"
	f, err := fleet.New(fleet.Config{
		Replicas:            2,
		Service:             service.Config{Workers: 2, QueueDepth: 64},
		AntiEntropyInterval: -1,
		HeartbeatInterval:   15 * time.Millisecond,
	})
	if err != nil {
		return Row{Name: name, Detail: err.Error()}
	}
	defer f.Close()
	if !f.AwaitReady(10 * time.Second) {
		return Row{Name: name, Detail: "fleet never became ready"}
	}
	flapper := f.Replica(1).ID()

	var want []string
	for i := 0; i < 3; i++ {
		after := lastSeq(f)
		f.CrashReplica(1)
		if !awaitEvent(f, fleet.KindReplicaSuspected, flapper, after) {
			return Row{Name: name, Detail: fmt.Sprintf("flap %d: peer never suspected", i+1)}
		}
		after = lastSeq(f)
		if err := f.RestartReplica(1); err != nil {
			return Row{Name: name, Detail: err.Error()}
		}
		if !awaitEvent(f, fleet.KindReplicaRecovered, flapper, after) {
			return Row{Name: name, Detail: fmt.Sprintf("flap %d: peer never recovered", i+1)}
		}
		want = append(want, fleet.KindReplicaSuspected, fleet.KindReplicaRecovered)
	}
	converged := f.AwaitConverged(5 * time.Second)

	var tail []string
	for _, e := range f.Events() {
		if e.Replica == flapper && (e.Kind == fleet.KindReplicaSuspected || e.Kind == fleet.KindReplicaRecovered) {
			tail = append(tail, e.Kind)
		}
	}
	return Row{
		Name:   name,
		Detail: fmt.Sprintf("event tail %v converged=%v", tail, converged),
		Pass:   converged && slices.Equal(tail, want),
	}
}

// runE22CampaignRow runs a seeded chaos campaign drawn entirely from
// the gray fault kinds and requires the fleet to re-converge after the
// final heal.
func runE22CampaignRow() Row {
	const name = "gray-kind chaos campaign re-converges"
	f, err := fleet.New(fleet.Config{
		Replicas:            3,
		Service:             service.Config{Workers: 2, QueueDepth: 64},
		AntiEntropyInterval: -1,
		HeartbeatInterval:   25 * time.Millisecond,
	})
	if err != nil {
		return Row{Name: name, Detail: err.Error()}
	}
	defer f.Close()
	if !f.AwaitReady(10 * time.Second) {
		return Row{Name: name, Detail: "fleet never became ready"}
	}
	tpl := chaos.Template{
		Kinds:       []cluster.FaultKind{cluster.FaultSlowPeer, cluster.FaultAsymPartition, cluster.FaultGarbageReply},
		Faults:      3,
		Gap:         3,
		Start:       1,
		CutDuration: 2,
		SlowDelayMS: 50,
	}
	sched, err := tpl.FleetSchedule(3, 22)
	if err != nil {
		return Row{Name: name, Detail: err.Error()}
	}
	res, err := f.RunCampaign(context.Background(), sched, 50*time.Millisecond)
	if err != nil {
		return Row{Name: name, Detail: err.Error()}
	}
	return Row{
		Name:   name,
		Detail: fmt.Sprintf("faults=%v converged=%v", res.Faults, res.Converged),
		Pass:   res.Converged,
	}
}

// lastSeq returns the newest event sequence number (0 when empty).
func lastSeq(f *fleet.Fleet) int {
	evs := f.Events()
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].Seq
}

// awaitEvent polls the fleet's event stream until an event of kind
// about replica appears with Seq > after, or five seconds pass.
func awaitEvent(f *fleet.Fleet, kind, replica string, after int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, e := range f.Events() {
			if e.Seq > after && e.Kind == kind && e.Replica == replica {
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
