package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// E19Fleet is the sixth extension experiment: horizontal scaling of
// the verdict service. Fleets of 1, 2, and 3 replicas face the same
// seeded Zipf-skewed workload twice — once with anti-entropy disabled,
// once with digest/pull rounds run to fixpoint between the passes —
// and the experiment measures what each mechanism buys: consistent-
// hash routing concentrates each program's compute on one owner
// (forwards instead of duplicate work), and anti-entropy converts
// those forwards into local hits by diffusing the verdicts to every
// replica. All counts are deterministic for the fixed seed: the
// workload is pre-generated and runs sequentially against fleets with
// hedging off, so the report is a golden artifact (BENCH_fleet.json),
// not a flaky benchmark. Hedging stays off because a hedge fires on
// wall-clock time: under CPU contention it races local compute against
// a forward the owner would have answered from cache, and a local win
// turns that hit into a miss.
func E19Fleet() *Report {
	r := &Report{
		ID:    "E19",
		Title: "Extension: replica fleet scaling — consistent-hash routing and anti-entropy sync",
		Claim: "any replica answers any request; routing makes one replica own each verdict, and anti-entropy makes every replica serve it locally — zero 5xx throughout",
	}

	const (
		requests = 240
		warmup   = 80
		programs = 10
		seed     = 19
	)

	for _, n := range []int{1, 2, 3} {
		for _, withAE := range []bool{false, true} {
			row, note := runE19Cell(n, withAE, requests, warmup, programs, seed)
			r.Rows = append(r.Rows, row)
			if note != "" {
				r.Notes = append(r.Notes, note)
			}
		}
	}
	return r
}

// runE19Cell measures one (fleet size, anti-entropy) cell: a warmup
// pass over the full workload, optionally anti-entropy to fixpoint,
// then a measured pass over the same workload against the warm fleet.
func runE19Cell(n int, withAE bool, requests, warmup, programs int, seed int64) (Row, string) {
	f, err := fleet.New(fleet.Config{
		Replicas:            n,
		Service:             service.Config{Workers: 2, QueueDepth: 64},
		AntiEntropyInterval: -1, // manual: the experiment drives rounds
		HeartbeatInterval:   25 * time.Millisecond,
		HedgeDelay:          -1, // counts must not depend on wall-clock races
	})
	if err != nil {
		return Row{Name: fmt.Sprintf("N=%d", n), Detail: err.Error()}, ""
	}
	defer f.Close()
	if !f.AwaitReady(10 * time.Second) {
		return Row{Name: fmt.Sprintf("N=%d", n), Detail: "fleet never became ready"}, ""
	}
	cfg := fleet.LoadgenConfig{
		Addrs:    f.HTTPAddrs(),
		Requests: requests,
		Warmup:   warmup,
		Programs: programs,
		Seed:     seed,
	}
	ctx := context.Background()
	// Pass 1 warms every owner's cache with the full workload.
	if _, err := fleet.RunLoadgen(ctx, cfg); err != nil {
		return Row{Name: fmt.Sprintf("N=%d", n), Detail: err.Error()}, ""
	}
	rounds, pulled := 0, 0
	if withAE {
		// Digest/pull to fixpoint: rounds stop pulling once every
		// replica holds every verdict.
		for {
			got := f.AntiEntropyRound()
			rounds++
			pulled += got
			if got == 0 || rounds > 20 {
				break
			}
		}
	}
	rep, err := fleet.RunLoadgen(ctx, cfg)
	if err != nil {
		return Row{Name: fmt.Sprintf("N=%d", n), Detail: err.Error()}, ""
	}

	name := fmt.Sprintf("N=%d %s", n, map[bool]string{false: "routing only", true: "with anti-entropy"}[withAE])
	detail := fmt.Sprintf("hit=%.4f forward=%.4f 5xx=%d 429=%d 504=%d",
		rep.HitRatio, rep.ForwardRatio, rep.ServerErr5x, rep.Overload429, rep.Timeout504)
	if withAE {
		detail += fmt.Sprintf(" ae_rounds=%d pulled=%d", rounds, pulled)
	}

	clean := rep.ServerErr5x == 0 && rep.Status["error"] == 0 && rep.Timeout504 == 0
	warm := rep.HitRatio == 1 // every measured request served from a cache
	var routed bool
	var note string
	if withAE {
		// Anti-entropy turns every forward into a local hit.
		routed = rep.Forwarded == 0
		if caches := cacheSpread(f); caches != "" {
			note = fmt.Sprintf("N=%d cache spread after sync: %s", n, caches)
		}
	} else if n == 1 {
		routed = rep.Forwarded == 0 // nothing to forward to
	} else {
		// Without sync, a non-owner entry must forward: the owner holds
		// the only copy of the verdict.
		routed = rep.Forwarded > 0
	}
	return Row{Name: name, Detail: detail, Pass: clean && warm && routed}, note
}

// cacheSpread renders each replica's cache size after sync — equal
// sizes are the visible trace of convergence.
func cacheSpread(f *fleet.Fleet) string {
	sizes := make([]int, 0, f.Replicas())
	for i := 0; i < f.Replicas(); i++ {
		if svc := f.Replica(i).Service(); svc != nil {
			sizes = append(sizes, len(svc.CacheKeys()))
		}
	}
	sort.Ints(sizes)
	return fmt.Sprintf("%v entries per replica", sizes)
}
