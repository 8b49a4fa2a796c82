// Quickstart: build Dijkstra's 3-state token ring, prove it stabilizing
// with the convergence-refinement toolkit, then watch it recover from an
// injected transient fault in the simulator.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Model checking: Dijkstra's 3-state system is stabilizing to the
	//    abstract bidirectional token ring BTR through the Section 5
	//    mapping — Theorem 11, decided mechanically.
	const n = 3 // top process index: 4 processes
	btr := repro.NewBTR(n)
	three := repro.NewThreeState(n)
	alpha, err := three.Abstraction(btr)
	if err != nil {
		return err
	}
	d3 := three.Dijkstra3()
	rep := repro.Stabilizing(d3, btr.System(), alpha)
	fmt.Println(rep.Verdict)
	if !rep.Holds {
		return fmt.Errorf("unexpected: %s", rep.Reason)
	}

	// 2. Simulation: corrupt a legitimate ring and watch it converge.
	proto, err := repro.NewProtocol("dijkstra3", 8, 0)
	if err != nil {
		return err
	}
	legit, err := sim.LegitimateConfig(proto)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(42))
	start := sim.Corrupt(proto, legit, 4, rng)
	fmt.Printf("\ncorrupted start: %v (%d tokens)\n", start, sim.TokenCount(proto, start))

	runner := &repro.Runner{Proto: proto, Daemon: repro.NewRandomDaemon(7), MaxSteps: 1000,
		OnStep: func(step int, c sim.Config, tokens int, m sim.Move) {
			fmt.Printf("step %2d: %v (tokens %d), process %d fires %s\n",
				step+1, c, tokens, m.Proc, m.Rule)
		}}
	conv, err := runner.Run(start)
	if err != nil {
		return err
	}
	if !conv.Converged {
		return fmt.Errorf("no convergence")
	}
	fmt.Printf("legitimate after %d steps: %v\n", conv.Steps, conv.Final)

	// 3. The same protocol on real goroutines, scheduled by the Go
	//    runtime.
	live := &repro.LiveRing{Proto: proto, MaxSteps: 100000}
	res, err := live.Run(start)
	if err != nil {
		return err
	}
	fmt.Printf("\nlive ring (goroutine per process): converged=%v in %d steps\n",
		res.Converged, res.Steps)
	return nil
}
