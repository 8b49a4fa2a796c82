// Command checkbench is the checkd benchmark. It runs one named workload
// from a seed against an in-process checkd server or replica fleet over
// loopback HTTP, driven by a closed loop of 2 clients, checks every
// verdict it receives against one computed by direct calls, and prints
// the end-to-end metrics — or, with -trace 1, the per-layer metrics of a
// traced replay — as one JSON object on the last line of standard output.
//
//	checkbench -workload cold-check -seed 1 -seconds 10 -trace 0
//
// Run it from the root of the repository: hot-cache reads examples/gcl.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/service/cache"
)

const (
	// setupRuns is how many times a run sets the system under test up;
	// it reports the median time and measures on the last one.
	setupRuns = 21
	// warmup is how long the clients run before the measured phase, so
	// that processor clocks, connections and the fleet's latency
	// trackers have settled.
	warmup = 2 * time.Second
	// windowCount splits the measured phase into equal windows;
	// throughput and p50 are medians over them, so a burst of outside
	// interference moves them less.
	windowCount = 10
)

func main() {
	workload := flag.String("workload", "", "workload: cold-check | hot-cache | fleet-fresh | fleet-gray")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced replay, printing the per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "checkbench: unknown -workload %q (want one of %v)\n", *workload, workloads)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "checkbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run prepares the workload, sets the system up, warms it, runs the
// measured (or traced) phase, times setupRuns set-ups in all, and checks
// every response.
func run(workload string, seed int64, d time.Duration, traced bool) (*result, error) {
	// Preparation: the workload's inputs and, where the population is
	// known in advance, its expected verdicts.
	o := newOracle()
	var population []request
	if workload == wlHotCache {
		progs, err := hotPrograms(".")
		if err != nil {
			return nil, err
		}
		if population, err = hotRequests(progs, o); err != nil {
			return nil, err
		}
	}

	// The first set-up serves the run; timeSetUp repeats it once the
	// measured phase has brought the processor clocks up. Each starts
	// from a collected heap, so that no set-up pays for an earlier
	// phase's garbage.
	var setups []float64
	timeSetUp := func() (target, error) {
		runtime.GC()
		t0 := time.Now()
		tgt, err := setUp(workload, population)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return tgt, nil
	}
	tgt, err := timeSetUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if tgt != nil {
			tgt.close()
		}
	}()
	if workload == wlFleetGray {
		tgt.(*fleetTarget).f.SlowReplica(grayReplica, grayDelay)
	}

	var s *stream
	switch workload {
	case wlColdCheck:
		s = coldStream(seed)
	case wlHotCache:
		s = hotStream(seed, population)
	default:
		s = fleetStream(seed, fleetReplicas)
	}

	var tracers []*tracer
	var after func(int, *outcome)
	if traced {
		for c := 0; c < clients; c++ {
			jr, err := journal.Open(journal.NewMemBackend(nil), journal.Options{})
			if err != nil {
				return nil, err
			}
			defer jr.Close()
			tr := &tracer{workload: workload, jr: jr, lookup: cache.New(4096), oracle: o, classes: map[string]*classStats{}}
			for _, req := range population { // the replay's cache is warmed like the server's
				a, err := admit(req, untimed)
				if err != nil {
					return nil, err
				}
				tr.lookup.Put(a.key, o.entry(req).resp)
			}
			tracers = append(tracers, tr)
		}
		after = func(c int, out *outcome) { tracers[c].replay(out) }
	}

	warm, _ := drive(s, tgt.addrs(), warmup, nil)
	runtime.GC()
	var before, afterMem runtime.MemStats
	runtime.ReadMemStats(&before)
	c0, err := tgt.counters()
	if err != nil {
		return nil, err
	}
	outs, elapsed := drive(s, tgt.addrs(), d, after)
	runtime.ReadMemStats(&afterMem)
	c1, err := tgt.counters()
	if err != nil {
		return nil, err
	}
	delta := c1.sub(c0)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	tgt.close()
	tgt = nil
	for len(setups) < setupRuns {
		t, err := timeSetUp()
		if err != nil {
			return nil, err
		}
		t.close()
	}

	warmFailed, warmWrong := verify(warm, o)
	failed, wrong := verify(outs, o)
	var lats []float64
	for i := range outs {
		if outs[i].completed() {
			lats = append(lats, float64(outs[i].lat)/float64(time.Millisecond))
		}
	}
	ok := len(outs) - failed
	sort.Float64s(lats)

	res := &result{Correct: true, Attempted: len(outs), Failed: failed, Metrics: map[string]metric{}}
	var problems []error
	if len(outs) == 0 {
		return nil, errors.New("no request was sent")
	}
	if wrong+warmWrong > 0 {
		problems = append(problems, fmt.Errorf("%d responses carried a wrong verdict", wrong+warmWrong))
	}
	if warmFailed > 0 {
		problems = append(problems, fmt.Errorf("%d of %d warm-up requests failed", warmFailed, len(warm)))
	}
	if err := guard(workload, delta); err != nil {
		problems = append(problems, err)
	}
	hitRatio := ratio(float64(delta.hits), float64(delta.hits+delta.misses))
	fmt.Printf("workload=%s seed=%d trace=%t attempted=%d completed=%d failed=%d error_rate=%.6g latency_samples=%d elapsed_s=%.3f cache_hit_ratio=%.4f forwards=%d hedges_fired=%d\n",
		workload, seed, traced, len(outs), len(lats), failed, ratio(float64(failed), float64(len(outs))),
		len(lats), elapsed.Seconds(), hitRatio, delta.forwards, delta.hedgesFired)

	if !traced {
		rates, p50s := windows(outs, elapsed, windowCount)
		fmt.Printf("overall_rps=%.1f window_rps=%.0f window_p50_ms=%.3f\n", float64(ok)/elapsed.Seconds(), rates, p50s)
		_, err50 := percentile(lats, 50)
		p99, err99 := percentile(lats, 99)
		problems = append(problems, err50, err99)
		res.Metrics["throughput_rps"] = metric{median(rates), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["latency_p99_ms"] = metric{p99, "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["alloc_kb_per_req"] = metric{float64(afterMem.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(lats)), "KiB"}
		res.Metrics["rss_peak_mb"] = metric{rss, "MiB"}
	} else {
		for _, tr := range tracers {
			problems = append(problems, tr.err)
		}
		if res.Metrics, err = tracedMetrics(tracers, outs, delta); err != nil {
			return nil, err
		}
	}
	for _, p := range problems {
		if p != nil {
			fmt.Println("problem:", p)
			res.Correct = false
		}
	}
	return res, nil
}

// setUp builds the system under test and waits until it is ready; for
// hot-cache that includes warming its cache with the whole population.
func setUp(workload string, population []request) (target, error) {
	if isFleet(workload) {
		return startFleet()
	}
	s, err := startSingle()
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	for _, req := range population {
		if o := send(hc, s.addr, req, "warm"); o.status != 200 {
			s.close()
			return nil, fmt.Errorf("warming %s %s: status %d", req.kind, req.name, o.status)
		}
	}
	return s, nil
}

// guard fails a run whose workload's mechanism did not run.
func guard(workload string, d counters) error {
	switch workload {
	case wlColdCheck:
		if d.hits != 0 {
			return fmt.Errorf("cold-check: %d cache hits, want 0", d.hits)
		}
	case wlHotCache:
		if r := ratio(float64(d.hits), float64(d.hits+d.misses)); r < 0.99 {
			return fmt.Errorf("hot-cache: hit ratio %.4f, want ≥ 0.99", r)
		}
	case wlFleetFresh:
		if d.forwards <= 0 {
			return errors.New("fleet-fresh: no request was forwarded")
		}
	case wlFleetGray:
		if d.hedgesFired <= 0 {
			return errors.New("fleet-gray: no hedge fired")
		}
	}
	return nil
}
