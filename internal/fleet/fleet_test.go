package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/service"
)

// testFleet builds a small fast fleet: quick heartbeats, manual
// anti-entropy (tests drive rounds explicitly), tiny worker pools.
func testFleet(t *testing.T, replicas int, mutate func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{
		Replicas:            replicas,
		Service:             service.Config{Workers: 2, QueueDepth: 16},
		HeartbeatInterval:   20 * time.Millisecond,
		AntiEntropyInterval: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(f.Close)
	if !f.AwaitReady(5 * time.Second) {
		t.Fatal("fleet never became ready")
	}
	return f
}

// tinyProgram returns the i'th distinct small GCL program (3 states).
func tinyProgram(i int) string {
	return fmt.Sprintf("var x : 0..2;\ninit x == %d;\naction tick: true -> x := (x + 1) %% 3;", i%3) +
		fmt.Sprintf("\naction t%d: x == %d -> x := 0;", i, i%3)
}

// postTo posts a JSON body to one replica and returns the response.
func postTo(t *testing.T, addr, path string, body any, requestID string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getStatus(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// Every replica accepts every request; exactly one replica owns each
// program, the other entry points forward to it, and the forwarded
// response echoes the caller's X-Request-Id — one id traces the
// request across the hop. The owner's job log carries the same id.
func TestFleetForwardPreservesRequestID(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	f := testFleet(t, 3, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	body := service.SelfStabRequest{Source: tinyProgram(1), TimeoutMS: 30_000}
	forwarded := 0
	for i, addr := range f.HTTPAddrs() {
		id := fmt.Sprintf("trace-%d.abc:42", i)
		resp, raw := postTo(t, addr, "/v1/selfstab", body, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Request-Id"); got != id {
			t.Fatalf("replica %d: X-Request-Id = %q, want %q", i, got, id)
		}
		if owner := resp.Header.Get("X-Fleet-Owner"); owner != "" {
			forwarded++
			if owner == f.Replica(i).ID() {
				t.Fatalf("replica %d claims to have forwarded to itself", i)
			}
		}
	}
	if forwarded != 2 {
		t.Fatalf("forwarded %d of 3 requests, want exactly 2 (one owner)", forwarded)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawJob bool
	for _, line := range logs {
		if strings.Contains(line, "job done") && strings.Contains(line, "request=trace-0.abc:42") {
			sawJob = true
		}
	}
	if !sawJob {
		t.Fatalf("no worker-pool job log carries the original request id; logs:\n%s", strings.Join(logs, "\n"))
	}
}

// A fleet member's /readyz gates on membership and the first
// anti-entropy round; a plain single-process service is ready
// immediately — fleet gating never leaks into the standalone mode.
func TestFleetReadyzGating(t *testing.T) {
	f := testFleet(t, 2, func(c *Config) {
		// Periodic anti-entropy: readiness must wait for the first round.
		c.AntiEntropyInterval = time.Hour
	})
	addr := f.Replica(0).HTTPAddr()
	if code, body := getStatus(t, addr, "/readyz"); code != http.StatusOK {
		t.Fatalf("ready fleet member /readyz = %d: %s", code, body)
	}
	// Wind the replica back to the cold-boot state: readiness must drop.
	f.Replica(0).aeDone.Store(false)
	code, body := getStatus(t, addr, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("pre-first-round /readyz = %d, want 503: %s", code, body)
	}
	if !bytes.Contains(body, []byte("joining")) {
		t.Fatalf("pre-first-round /readyz body lacks joining status: %s", body)
	}
	if f.Replica(0).AntiEntropyRound() != 0 {
		t.Fatal("round against an in-sync peer pulled entries")
	}
	if code, body := getStatus(t, addr, "/readyz"); code != http.StatusOK {
		t.Fatalf("post-round /readyz = %d: %s", code, body)
	}

	// Standalone mode: no ring, no gating — ready from the first request.
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	rec := newLocalGet(svc, "/readyz")
	if rec.status != http.StatusOK {
		t.Fatalf("standalone /readyz = %d, want 200 immediately", rec.status)
	}
}

// newLocalGet drives a handler directly (no listener) for the
// standalone comparison.
func newLocalGet(h http.Handler, path string) *responseRecorder {
	rec := &responseRecorder{header: make(http.Header)}
	req, _ := http.NewRequest(http.MethodGet, path, nil)
	h.ServeHTTP(rec, req)
	return rec
}

// Anti-entropy diffuses a verdict computed on one replica to the
// others: after a round, a non-owner serves the same program from its
// own cache — no forward hop, cached=true.
func TestFleetAntiEntropySyncsVerdicts(t *testing.T) {
	f := testFleet(t, 2, nil)
	body := service.SelfStabRequest{Source: tinyProgram(2), TimeoutMS: 30_000}
	resp, raw := postTo(t, f.HTTPAddrs()[0], "/v1/selfstab", body, "seed-req")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request: %d: %s", resp.StatusCode, raw)
	}
	// Exactly one replica earned the cache entry.
	holders := 0
	for i := 0; i < f.Replicas(); i++ {
		if len(f.Replica(i).Service().CacheKeys()) == 1 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d replicas hold the verdict before sync, want 1", holders)
	}
	if pulled := f.AntiEntropyRound(); pulled != 1 {
		t.Fatalf("anti-entropy pulled %d entries, want 1", pulled)
	}
	for i := 0; i < f.Replicas(); i++ {
		if n := len(f.Replica(i).Service().CacheKeys()); n != 1 {
			t.Fatalf("replica %d holds %d entries after sync, want 1", i, n)
		}
	}
	// The non-owner now serves locally from the synced entry.
	for i, addr := range f.HTTPAddrs() {
		resp, raw := postTo(t, addr, "/v1/selfstab", body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d post-sync: %d: %s", i, resp.StatusCode, raw)
		}
		if owner := resp.Header.Get("X-Fleet-Owner"); owner != "" {
			t.Fatalf("replica %d still forwards (owner %s) after sync", i, owner)
		}
		var out service.SelfStabResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("replica %d response: %v", i, err)
		}
		if !out.Cached {
			t.Fatalf("replica %d recomputed a synced verdict", i)
		}
	}
}

// A crashed replica is suspected by its peers (ring shrinks), keeps
// being served around, and on restart is re-admitted: the rings
// re-converge to the full member set and the monitor shows the story.
func TestFleetCrashSuspectRecover(t *testing.T) {
	f := testFleet(t, 3, nil)
	f.CrashReplica(2)
	deadline := time.Now().Add(5 * time.Second)
	for f.mon.Count("replica-suspected") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("peers never suspected the crashed replica; events: %+v", f.Events())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !f.AwaitConverged(5 * time.Second) {
		t.Fatalf("rings did not shrink to the live set; r0 ring: %v", f.Replica(0).RingMembers())
	}
	// The shrunken fleet still answers everything.
	for i := 0; i < 6; i++ {
		body := service.SelfStabRequest{Source: tinyProgram(i), TimeoutMS: 30_000}
		for _, addr := range f.HTTPAddrs()[:2] {
			resp, raw := postTo(t, addr, "/v1/selfstab", body, "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("during crash: %d: %s", resp.StatusCode, raw)
			}
		}
	}
	if err := f.RestartReplica(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !f.AwaitConverged(5 * time.Second) {
		t.Fatalf("rings never re-converged after restart; r0 ring: %v", f.Replica(0).RingMembers())
	}
	if got := f.Replica(0).RingMembers(); len(got) != 3 {
		t.Fatalf("r0 ring after recovery: %v", got)
	}
	if f.mon.Count("replica-recovered") < 2 {
		t.Fatalf("no recovery events; events: %+v", f.Events())
	}
	if f.mon.Count("crash") != 1 || f.mon.Count("restart") != 1 {
		t.Fatalf("crash/restart events missing; events: %+v", f.Events())
	}
}

// A replica crashing under load drops its connections before its
// service goes away: a request caught by the crash sees a transport
// error, which a client retries on another replica, and never a
// "replica is down" 503.
func TestFleetCrashDropsConnectionsInsteadOf503(t *testing.T) {
	f := testFleet(t, 2, nil)
	raw, err := json.Marshal(service.LintRequest{Source: tinyProgram(0), TimeoutMS: 30_000})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	url := "http://" + f.HTTPAddrs()[1] + "/v1/lint"
	var stop atomic.Bool
	var served, failed5xx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for !stop.Load() {
				resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
				if err != nil {
					time.Sleep(time.Millisecond) // down: the retryable outcome
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				served.Add(1)
				if resp.StatusCode >= 500 {
					failed5xx.Add(1)
				}
			}
		}()
	}
	var restartErr error
	for i := 0; i < 30 && restartErr == nil; i++ {
		f.CrashReplica(1)
		restartErr = f.RestartReplica(1)
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if restartErr != nil {
		t.Fatalf("restart: %v", restartErr)
	}
	if served.Load() == 0 {
		t.Fatal("no request was answered; the crashes never met traffic")
	}
	if n := failed5xx.Load(); n != 0 {
		t.Fatalf("%d of %d answered requests were 5xx across 30 crashes", n, served.Load())
	}
}

// Under a partition, a request whose owner is unreachable falls back
// to local compute — never a 5xx — and after the heal the rings
// re-converge.
func TestFleetPartitionFallsBackLocally(t *testing.T) {
	f := testFleet(t, 3, nil)
	f.Partition([]int{0}, []int{1, 2})
	// Requests keep succeeding on both sides of the cut, immediately —
	// before and after suspicion lands.
	for i := 0; i < 8; i++ {
		body := service.SelfStabRequest{Source: tinyProgram(i), TimeoutMS: 30_000}
		for j, addr := range f.HTTPAddrs() {
			resp, raw := postTo(t, addr, "/v1/selfstab", body, "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("replica %d during cut: %d: %s", j, resp.StatusCode, raw)
			}
		}
	}
	// Each side's ring shrinks to its island.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r0 := f.Replica(0).RingMembers()
		r1 := f.Replica(1).RingMembers()
		if len(r0) == 1 && len(r1) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rings never shrank to islands: r0=%v r1=%v", r0, r1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.Heal()
	if !f.AwaitConverged(5 * time.Second) {
		t.Fatalf("rings never re-converged after heal; r0: %v", f.Replica(0).RingMembers())
	}
	if f.mon.Count("partition") != 1 || f.mon.Count("heal") != 1 {
		t.Fatalf("partition/heal events missing; events: %+v", f.Events())
	}
}

// A graceful leave drops the member from peers' rings without a
// suspicion round, and a restart re-admits it.
func TestFleetGracefulLeaveAndReturn(t *testing.T) {
	f := testFleet(t, 3, nil)
	f.StopReplica(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(f.Replica(0).RingMembers()) == 2 && f.Converged() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers never dropped the departed member; r0 ring: %v", f.Replica(0).RingMembers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if f.mon.Count("replica-left") != 1 {
		t.Fatalf("leave event missing; events: %+v", f.Events())
	}
	if err := f.RestartReplica(1); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if !f.AwaitConverged(5 * time.Second) {
		t.Fatalf("departed member never rejoined; r0 ring: %v", f.Replica(0).RingMembers())
	}
}

// A seeded chaos campaign — crashes and partitions with durations —
// runs against a live fleet and the control plane re-converges after
// the final heal. Traffic during the campaign never sees a 5xx.
func TestFleetChaosCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test needs wall-clock ticks")
	}
	f := testFleet(t, 3, nil)
	tpl := chaos.Template{
		Kinds:       []cluster.FaultKind{cluster.FaultCrash, cluster.FaultPartition},
		Faults:      3,
		Gap:         3,
		Start:       1,
		CutDuration: 2,
	}
	sched, err := tpl.FleetSchedule(3, 42)
	if err != nil {
		t.Fatalf("FleetSchedule: %v", err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			body := service.SelfStabRequest{Source: tinyProgram(i), TimeoutMS: 30_000}
			addr := f.HTTPAddrs()[i%3]
			raw, _ := json.Marshal(body)
			resp, err := http.Post("http://"+addr+"/v1/selfstab", "application/json", bytes.NewReader(raw))
			if err == nil {
				if resp.StatusCode >= 500 {
					errs <- fmt.Errorf("request %d to %s: status %d", i, addr, resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
			// Connection errors are expected against a crashed replica; a
			// real client retries elsewhere. 5xx from a live one is not.
			i++
			time.Sleep(5 * time.Millisecond)
		}
	}()
	res, err := f.RunCampaign(context.Background(), sched, 60*time.Millisecond)
	close(stop)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if cerr := <-errs; cerr != nil {
		t.Fatalf("traffic during campaign: %v", cerr)
	}
	if !res.Converged {
		t.Fatalf("fleet did not re-converge after the campaign: %+v; events: %+v", res, f.Events())
	}
	total := 0
	for _, n := range res.Faults {
		total += n
	}
	if total != 3 {
		t.Fatalf("campaign applied %d faults, want 3: %+v", total, res.Faults)
	}
}
