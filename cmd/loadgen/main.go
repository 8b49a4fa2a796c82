// Command loadgen is the fleet load-generator harness: a seeded
// closed-loop traffic source for checkd replicas, reporting latency
// percentiles, throughput, cache-hit and forward ratios, and
// back-pressure counts (429/504) as JSON.
//
// Two target modes:
//
//   - -addrs host:port,host:port,…  drive an already-running fleet
//     (e.g. one started with checkd -fleet 3);
//   - -replicas N  spin an in-process fleet of N replicas, drive it,
//     and tear it down — a self-contained smoke test and benchmark.
//
// With -replicas, -chaos additionally runs a seeded chaos campaign
// (crash + partition by default; -chaos-kinds widens the mix to the
// gray kinds slow-peer, asym-partition, and garbage-reply) while the
// traffic runs; the fleet must keep answering without a single 5xx,
// and the report gains the campaign result and the membership event
// counts. -breaker-failures and -hedge-delay tune the fleet's
// failure-domain hardening for the run, and the per-replica report
// section carries the breaker, hedge, and deadline-budget counters.
//
// The workload is pre-generated from -seed: request kinds from the
// -mix percentages, program popularity Zipf-skewed over -programs
// distinct programs, entry replica round-robin. With -concurrency 1
// and -hedge-delay -1 every count in the report is deterministic for a
// fixed seed (a hedge fires on wall-clock time); latency and
// throughput are wall-clock measurements.
//
// Usage:
//
//	loadgen -replicas 3 -n 600 -warmup 200
//	loadgen -replicas 3 -chaos -fail-on-5xx
//	loadgen -addrs 127.0.0.1:8417 -n 200 -out report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/fleet"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// fullReport is the loadgen report plus the optional campaign section.
type fullReport struct {
	*fleet.LoadgenReport
	Campaign *fleet.CampaignResult `json:"campaign,omitempty"`
	Events   map[string]int        `json:"events,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(out)
	addrs := fs.String("addrs", "", "comma-separated replica HTTP addresses to drive")
	replicas := fs.Int("replicas", 0, "spin an in-process fleet of N replicas instead of -addrs")
	n := fs.Int("n", 600, "total requests")
	warmup := fs.Int("warmup", 200, "requests excluded from hit-ratio and latency stats")
	programs := fs.Int("programs", 20, "distinct program population")
	seed := fs.Int64("seed", 1, "workload seed")
	zipf := fs.Float64("zipf", 1.2, "Zipf skew over the program population (> 1)")
	mix := fs.String("mix", "60,30,10", "check,lint,refine traffic mix in percent")
	concurrency := fs.Int("concurrency", 1, "closed-loop workers (1 = deterministic counts with -hedge-delay -1)")
	timeoutMS := fs.Int64("timeout-ms", 30_000, "per-request timeout_ms")
	pace := fs.Duration("pace", 0, "sleep between consecutive requests per worker (spreads load across a campaign)")
	journalMode := fs.Bool("journal", false, "event-source the in-process fleet: per-replica journals, suffix-based anti-entropy (needs -replicas)")
	chaosRun := fs.Bool("chaos", false, "run a seeded chaos campaign during the load (needs -replicas)")
	chaosFaults := fs.Int("chaos-faults", 3, "campaign fault count")
	chaosKinds := fs.String("chaos-kinds", "crash,partition", "comma-separated campaign fault kinds (crash, partition, isolate, slow-peer, asym-partition, garbage-reply)")
	slowDelay := fs.Duration("slow-delay", 200*time.Millisecond, "injected per-operation delay for slow-peer faults")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive forward failures that open a peer breaker (0 = fleet default, negative = disabled)")
	hedgeDelay := fs.Duration("hedge-delay", 0, "fixed hedged-forward delay (0 = latency-derived, negative = disabled)")
	failOn5xx := fs.Bool("fail-on-5xx", false, "exit non-zero if any response was a 5xx or transport error")
	outPath := fs.String("out", "", "write the JSON report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Up-front validation, ringsim-style: every rejection names the
	// offending flag, so a typo fails fast instead of surfacing as a
	// confusing mid-run error (or a silent nonsense workload).
	switch {
	case *replicas < 0:
		return fmt.Errorf("-replicas %d: cannot spin a negative number of replicas", *replicas)
	case *n <= 0:
		return fmt.Errorf("-n %d: the run needs at least one request", *n)
	case *warmup < 0:
		return fmt.Errorf("-warmup %d: cannot exclude a negative number of requests", *warmup)
	case *warmup >= *n:
		return fmt.Errorf("-warmup %d: must be smaller than -n %d or no request counts toward the stats", *warmup, *n)
	case *programs <= 0:
		return fmt.Errorf("-programs %d: the program population must be positive", *programs)
	case *zipf <= 1:
		return fmt.Errorf("-zipf %g: the Zipf skew must exceed 1", *zipf)
	case *concurrency <= 0:
		return fmt.Errorf("-concurrency %d: need at least one closed-loop worker", *concurrency)
	case *timeoutMS <= 0:
		return fmt.Errorf("-timeout-ms %d: the per-request timeout must be positive", *timeoutMS)
	case *pace < 0:
		return fmt.Errorf("-pace %s: cannot sleep a negative duration between requests", *pace)
	case *chaosRun && *chaosFaults <= 0:
		return fmt.Errorf("-chaos-faults %d: a chaos campaign needs at least one fault", *chaosFaults)
	case *slowDelay < 0:
		return fmt.Errorf("-slow-delay %s: cannot inject a negative delay", *slowDelay)
	case *breakerFailures != 0 && *replicas == 0:
		return fmt.Errorf("-breaker-failures %d: breaker tuning needs an in-process fleet (-replicas)", *breakerFailures)
	case *hedgeDelay != 0 && *replicas == 0:
		return fmt.Errorf("-hedge-delay %s: hedge tuning needs an in-process fleet (-replicas)", *hedgeDelay)
	}
	mixVal, err := parseMix(*mix)
	if err != nil {
		return err
	}
	kindsVal, err := parseChaosKinds(*chaosKinds)
	if err != nil {
		return err
	}

	var targets []string
	var f *fleet.Fleet
	switch {
	case *replicas > 0 && *addrs != "":
		return errors.New("-addrs and -replicas are mutually exclusive")
	case *replicas > 0:
		f, err = fleet.New(fleet.Config{
			Replicas:        *replicas,
			Service:         service.Config{},
			Journal:         *journalMode,
			BreakerFailures: *breakerFailures,
			HedgeDelay:      *hedgeDelay,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if !f.AwaitReady(30 * time.Second) {
			return errors.New("fleet replicas never became ready")
		}
		targets = f.HTTPAddrs()
	case *addrs != "":
		targets = strings.Split(*addrs, ",")
	default:
		return errors.New("need -addrs or -replicas")
	}
	if *chaosRun && f == nil {
		return errors.New("-chaos needs an in-process fleet (-replicas)")
	}
	if *journalMode && f == nil {
		return errors.New("-journal needs an in-process fleet (-replicas)")
	}

	ctx := context.Background()
	campc := make(chan *fleet.CampaignResult, 1)
	campErr := make(chan error, 1)
	if *chaosRun {
		tpl := chaos.Template{
			Kinds:       kindsVal,
			Faults:      *chaosFaults,
			Gap:         3,
			Start:       1,
			CutDuration: 2,
			SlowDelayMS: slowDelay.Milliseconds(),
		}
		sched, err := tpl.FleetSchedule(*replicas, *seed)
		if err != nil {
			return err
		}
		go func() {
			res, err := f.RunCampaign(ctx, sched, 150*time.Millisecond)
			campc <- res
			campErr <- err
		}()
	}

	rep, err := fleet.RunLoadgen(ctx, fleet.LoadgenConfig{
		Addrs:       targets,
		Requests:    *n,
		Warmup:      *warmup,
		Programs:    *programs,
		Seed:        *seed,
		ZipfS:       *zipf,
		Mix:         mixVal,
		Concurrency: *concurrency,
		TimeoutMS:   *timeoutMS,
		Pace:        *pace,
	})
	if err != nil {
		return err
	}
	full := fullReport{LoadgenReport: rep}
	if *chaosRun {
		full.Campaign = <-campc
		if err := <-campErr; err != nil {
			return fmt.Errorf("chaos campaign: %w", err)
		}
		full.Events = map[string]int{}
		for _, e := range f.Events() {
			full.Events[e.Kind]++
		}
	}

	raw, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "loadgen: report written to %s\n", *outPath)
	} else {
		_, _ = out.Write(raw)
	}

	if *failOn5xx && (rep.ServerErr5x > 0 || rep.Status["error"] > 0) {
		return fmt.Errorf("run saw %d 5xx responses and %d transport errors",
			rep.ServerErr5x, rep.Status["error"])
	}
	if full.Campaign != nil && !full.Campaign.Converged {
		return errors.New("fleet did not re-converge after the chaos campaign")
	}
	return nil
}

// parseChaosKinds parses "crash,partition,slow-peer" into fault kinds,
// accepting only the kinds a live fleet campaign can apply.
func parseChaosKinds(s string) ([]cluster.FaultKind, error) {
	allowed := map[cluster.FaultKind]bool{}
	for _, k := range chaos.FleetKinds() {
		allowed[k] = true
	}
	var kinds []cluster.FaultKind
	for _, p := range strings.Split(s, ",") {
		k := cluster.FaultKind(strings.TrimSpace(p))
		if k == "" {
			continue
		}
		if !allowed[k] {
			return nil, fmt.Errorf("-chaos-kinds %q: %q is not a fleet fault kind (want a subset of %v)",
				s, k, chaos.FleetKinds())
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("-chaos-kinds %q: need at least one fault kind", s)
	}
	return kinds, nil
}

// parseMix parses "60,30,10" into a Mix summing to 100.
func parseMix(s string) (fleet.Mix, error) {
	var m fleet.Mix
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return m, fmt.Errorf("mix %q: want three comma-separated percentages", s)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &vals[i]); err != nil {
			return m, fmt.Errorf("mix %q: %v", s, err)
		}
	}
	if vals[0]+vals[1]+vals[2] != 100 {
		return m, fmt.Errorf("mix %q sums to %d, want 100", s, vals[0]+vals[1]+vals[2])
	}
	m.CheckPct, m.LintPct, m.RefinePct = vals[0], vals[1], vals[2]
	return m, nil
}
