// Command ringsim simulates a derived token-ring protocol under a chosen
// daemon, with transient-fault injection, and reports convergence.
//
// Usage:
//
//	ringsim -protocol dijkstra3 -p 8 -faults 4 -runs 50
//	ringsim -protocol kstate -p 6 -k 6 -daemon roundrobin -trace
//	ringsim -protocol dijkstra4 -p 7 -live
//	ringsim cluster -protocol dijkstra3 -p 5 -schedule "corrupt@40:node=1"
//	ringsim chaos -protocol dijkstra3 -p 5 -episodes 20 -recovery-slo 400
//
// The cluster subcommand runs the message-passing runtime
// (internal/cluster) instead of the shared-memory simulator; the chaos
// subcommand runs a seeded campaign of fault episodes judged against a
// recovery SLO, exiting non-zero on violation. See `ringsim cluster -h`
// and `ringsim chaos -h`. Chaos against a live checkd replica fleet is
// `loadgen -replicas N -chaos`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ringsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "cluster" {
		return runCluster(args[1:], out)
	}
	if len(args) > 0 && args[0] == "chaos" {
		return runChaos(args[1:], out)
	}
	fs := flag.NewFlagSet("ringsim", flag.ContinueOnError)
	fs.SetOutput(out)
	protoName := fs.String("protocol", "dijkstra3", "dijkstra3 | dijkstra4 | kstate | newthree")
	p := fs.Int("p", 8, "number of processes (≥ 3)")
	k := fs.Int("k", 0, "K for kstate (default: number of processes)")
	daemonName := fs.String("daemon", "random", "random | roundrobin | greedy")
	seed := fs.Int64("seed", 1, "random seed")
	faults := fs.Int("faults", 3, "registers corrupted at start of each run")
	steps := fs.Int("steps", 100000, "step budget per run")
	runs := fs.Int("runs", 1, "number of runs to aggregate")
	traceRun := fs.Bool("trace", false, "print each configuration of a single run")
	live := fs.Bool("live", false, "run with one goroutine per process (Go scheduler as daemon)")
	service := fs.Bool("service", false, "measure the ring as a mutual-exclusion service")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (subcommands: cluster, chaos)", fs.Arg(0))
	}

	// Validate every numeric flag up front, naming the flag, before any
	// protocol construction: a bad value fails loudly here instead of
	// panicking or spinning deep inside the simulator.
	if *p < 3 {
		return fmt.Errorf("-p %d: a ring needs at least 3 processes", *p)
	}
	if *k == 0 {
		*k = *p
	}
	if *k < 1 {
		return fmt.Errorf("-k %d: the kstate domain must have at least 1 value", *k)
	}
	if *steps <= 0 {
		return fmt.Errorf("-steps %d: the step budget must be positive", *steps)
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs %d: need at least one run", *runs)
	}
	if *faults < 0 {
		return fmt.Errorf("-faults %d: cannot corrupt a negative number of registers", *faults)
	}
	proto, err := buildProtocol(*protoName, *p, *k)
	if err != nil {
		return err
	}

	mkDaemon := func(run int) sim.Daemon {
		switch *daemonName {
		case "random":
			return sim.NewRandomDaemon(*seed + int64(run))
		case "roundrobin":
			return sim.NewRoundRobinDaemon(proto.Procs())
		case "greedy":
			return sim.NewGreedyDaemon(proto)
		default:
			return nil
		}
	}
	if mkDaemon(0) == nil {
		return fmt.Errorf("unknown daemon %q", *daemonName)
	}

	rng := rand.New(rand.NewSource(*seed))
	legit, err := sim.LegitimateConfig(proto)
	if err != nil {
		return err
	}

	if *service {
		start := sim.Corrupt(proto, legit, *faults, rng)
		stats, err := sim.MeasureService(proto, mkDaemon(0), start, *steps)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s as a mutual-exclusion service (%d moves, %d initial faults)\n",
			proto.Name(), stats.Steps, *faults)
		fmt.Fprintf(out, "unsafe window: %d steps (%d violations); entries per process: %v (min %d, max %d)\n",
			stats.StepsToSafety, stats.ViolationSteps, stats.Entries, stats.MinEntries(), stats.MaxEntries())
		return nil
	}

	if *live {
		start := sim.Corrupt(proto, legit, *faults, rng)
		fmt.Fprintf(out, "%s live run from %v (%d corrupted registers)\n", proto.Name(), start, *faults)
		lr := &sim.LiveRing{Proto: proto, MaxSteps: *steps, Seed: *seed}
		res, err := lr.Run(start)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "converged=%v steps=%d final=%v moves=%v\n",
			res.Converged, res.Steps, res.Final, res.Moves)
		return nil
	}

	if *traceRun {
		start := sim.Corrupt(proto, legit, *faults, rng)
		fmt.Fprintf(out, "%s under %s daemon from %v\n", proto.Name(), *daemonName, start)
		const line = "%4d  %v  tokens=%d\n"
		r := &sim.Runner{Proto: proto, Daemon: mkDaemon(0), MaxSteps: *steps,
			OnStep: func(step int, c sim.Config, tokens int, _ sim.Move) { fmt.Fprintf(out, line, step, c, tokens) }}
		res, err := r.Run(start)
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("no convergence within %d steps", *steps)
		}
		fmt.Fprintf(out, line+"legitimate after %d steps\n", res.Steps, res.Final, 1, res.Steps)
		return nil
	}

	stats, err := sim.MeasureConvergence(proto, mkDaemon, *runs, *faults, *steps, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s daemon=%s runs=%d faults=%d\n", proto.Name(), *daemonName, *runs, *faults)
	fmt.Fprintf(out, "converged %d/%d  mean steps %.1f  max steps %d\n",
		stats.Converged, stats.Runs, stats.MeanSteps, stats.MaxSteps)
	return nil
}

// buildProtocol is sim.NewProtocol with errors that name the CLI flag.
// Every subcommand rejects -p < 3 before calling it, so any other error
// is kstate's -k.
func buildProtocol(name string, p, k int) (*sim.Protocol, error) {
	proto, err := sim.NewProtocol(name, p, k)
	switch {
	case errors.Is(err, sim.ErrUnknownFamily):
		return nil, fmt.Errorf("-protocol: unknown protocol %q", name)
	case err != nil:
		return nil, fmt.Errorf("-k %d: %w", k, err)
	}
	return proto, nil
}
