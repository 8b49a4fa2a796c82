// Command checkd is the long-running verification service: it serves the
// repository's decision procedures over HTTP/JSON with a content-addressed
// verdict cache, a bounded worker pool, and per-request deadlines.
//
// Endpoints:
//
//	POST /v1/selfstab   {"source": <GCL text>}             self-stabilization battery
//	POST /v1/refine     {"concrete": ..., "abstract": ...} the gclc refine battery
//	POST /v1/ringsim    {"family": "dijkstra3", ...}       simulator convergence stats
//	POST /v1/cluster    {"family": "dijkstra3", ...}       message-passing cluster episode
//	POST /v1/lint       {"source": <GCL text>}             static analyzer diagnostics
//	GET  /healthz                                          liveness
//	GET  /readyz                                           readiness (503 while draining or saturated)
//	GET  /metrics                                          expvar-style counters
//
// With -cache-path the verdict cache survives restarts: it is snapshotted
// to the file periodically and on graceful shutdown, and reloaded on
// boot (corrupt entries are skipped and counted in /metrics).
//
// With -journal-path every request, verdict, and outcome is also
// appended to an event journal (group-committed, checksum-framed), and
// the verdict cache and /metrics counters are rebuilt from it once, on
// boot, before checkd starts listening — so a hard kill between cache
// snapshots loses at most one un-flushed batch, not the whole
// inter-snapshot window.
//
// With -journal-max-bytes the journal file is additionally kept under a
// disk budget: a retention loop snapshots the cache every
// -journal-checkpoint-interval and compacts the snapshot-covered journal
// prefix with a crash-safe whole-file rewrite; if compaction alone
// cannot hold the budget, admission degrades deterministically —
// backpressure first, then shedding fire-and-forget events (counted in
// /metrics as journal_shed_total) — while durable verdict appends keep
// their durable-or-error contract.
//
// With -fleet N the process runs N replicas as one logical service on
// loopback listeners: a consistent-hash ring routes each program to its
// owner replica, anti-entropy rounds sync verdict caches, and every
// replica additionally serves GET /fleetz with its view of the fleet.
// Point clients (or cmd/loadgen) at any of the printed addresses.
//
// Usage:
//
//	checkd -addr :8417
//	checkd -addr :8417 -workers 8 -queue 128 -cache 8192 -timeout 10s
//	checkd -addr :8417 -cache-path /var/lib/checkd/cache.snap
//	checkd -fleet 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "checkd:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until the context behind stop (nil means
// SIGINT/SIGTERM) is cancelled. Factored out of main for testing.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("checkd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8417", "listen address")
	workers := fs.Int("workers", 0, "verification worker goroutines (default GOMAXPROCS)")
	queue := fs.Int("queue", 64, "bounded request queue depth (overflow → 429)")
	cacheEntries := fs.Int("cache", 4096, "verdict cache capacity in entries")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "upper bound on requested deadlines")
	budget := fs.Int64("budget", 50_000_000, "default enumeration step budget per request")
	maxStates := fs.Int("max-states", 1<<20, "reject programs with larger declared state spaces")
	cachePath := fs.String("cache-path", "", "persist the verdict cache to this file (empty = in-memory only)")
	cacheSnapshotInterval := fs.Duration("cache-snapshot-interval", 30*time.Second, "background cache snapshot period (with -cache-path)")
	journalPath := fs.String("journal-path", "", "append every request/verdict/outcome to this event journal and rebuild state from it on boot (empty = no journal)")
	journalMaxBytes := fs.Int64("journal-max-bytes", 0, "journal disk budget: compact snapshot-covered history past it, then degrade admission (0 = unbounded; requires -journal-path and -cache-path)")
	journalCheckpointInterval := fs.Duration("journal-checkpoint-interval", 2*time.Second, "cache snapshot + compaction-horizon publish cadence (with -journal-max-bytes)")
	fleetSize := fs.Int("fleet", 0, "run N replicas as one fleet on loopback listeners (0 = single process)")
	fleetBreakerFailures := fs.Int("fleet-breaker-failures", 0, "consecutive forward failures that open a peer breaker (0 = default, negative = disabled; requires -fleet)")
	fleetBreakerBreach := fs.Duration("fleet-breaker-breach", 0, "forward p99 latency that opens a peer breaker (0 = default, negative = disabled; requires -fleet)")
	fleetHedgeDelay := fs.Duration("fleet-hedge-delay", 0, "hedged-forward delay (0 = latency-derived, negative = disabled; requires -fleet)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fleetSize <= 0 {
		switch {
		case *fleetBreakerFailures != 0:
			return errors.New("-fleet-breaker-failures requires -fleet (breakers guard forwards between replicas)")
		case *fleetBreakerBreach != 0:
			return errors.New("-fleet-breaker-breach requires -fleet (breakers guard forwards between replicas)")
		case *fleetHedgeDelay != 0:
			return errors.New("-fleet-hedge-delay requires -fleet (hedging races a forward against local compute)")
		}
	}
	retention := journal.Options{MaxBytes: *journalMaxBytes, CheckpointInterval: *journalCheckpointInterval}
	if err := retention.Validate(); err != nil {
		return err
	}
	if *journalMaxBytes > 0 {
		// The budget needs a journal file to bound and snapshots to
		// advance the compaction horizon; without them it could only shed.
		if *journalPath == "" {
			return errors.New("-journal-max-bytes requires -journal-path (there is no journal file to bound)")
		}
		if *cachePath == "" {
			return errors.New("-journal-max-bytes requires -cache-path (cache snapshots are what make journal history compactable)")
		}
	}

	svcCfg := service.Config{
		Workers:                   *workers,
		QueueDepth:                *queue,
		CacheEntries:              *cacheEntries,
		DefaultTimeout:            *timeout,
		MaxTimeout:                *maxTimeout,
		DefaultBudget:             *budget,
		MaxStates:                 *maxStates,
		CachePath:                 *cachePath,
		CacheSnapshotInterval:     *cacheSnapshotInterval,
		JournalPath:               *journalPath,
		JournalMaxBytes:           *journalMaxBytes,
		JournalCheckpointInterval: *journalCheckpointInterval,
	}
	if *fleetSize > 0 {
		if *journalPath != "" {
			return errors.New("-journal-path cannot be combined with -fleet: replicas do not share one journal file")
		}
		return runFleet(fleet.Config{
			Replicas:             *fleetSize,
			Service:              svcCfg,
			BreakerFailures:      *fleetBreakerFailures,
			BreakerLatencyBreach: *fleetBreakerBreach,
			HedgeDelay:           *fleetHedgeDelay,
		}, out, stop)
	}

	svc := service.New(svcCfg)
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(out, "checkd listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	if stop == nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sigc)
		select {
		case err := <-errc:
			return err
		case <-sigc:
		}
	} else {
		select {
		case err := <-errc:
			return err
		case <-stop:
		}
	}

	// Drain order: flip /readyz to 503 first so balancers stop routing,
	// then stop the listener and wait out in-flight requests; the deferred
	// Close then takes the final cache snapshot with no requests racing it.
	svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "checkd stopped")
	return nil
}

// runFleet serves the configured replicas as one logical service until
// stopped.
func runFleet(cfg fleet.Config, out io.Writer, stop <-chan struct{}) error {
	if cfg.Service.CachePath != "" {
		return errors.New("-cache-path cannot be combined with -fleet: replicas do not share one snapshot file")
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	defer f.Close()
	if !f.AwaitReady(30 * time.Second) {
		return errors.New("fleet replicas never became ready")
	}
	for i, addr := range f.HTTPAddrs() {
		fmt.Fprintf(out, "checkd fleet replica r%d listening on %s\n", i, addr)
	}
	if stop == nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sigc)
		<-sigc
	} else {
		<-stop
	}
	fmt.Fprintln(out, "checkd fleet stopped")
	return nil
}
