// Dijkstra's K-state protocol: the K-versus-ring-size stabilization
// threshold, decided by the model checker, followed by a live run on
// goroutines.
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
		fmt.Fprintln(os.Stderr, "kstate:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("self-stabilization of Dijkstra's K-state system (N+1 processes):")
	fmt.Print("        ")
	for k := 2; k <= 6; k++ {
		fmt.Printf("K=%d   ", k)
	}
	fmt.Println()
	for n := 2; n <= 4; n++ {
		fmt.Printf("N=%d:    ", n)
		for k := 2; k <= 6; k++ {
			rep := repro.SelfStabilizing(repro.NewKState(n, k).System())
			mark := "✗"
			if rep.Holds {
				mark = "✓"
			}
			fmt.Printf("%s     ", mark)
		}
		fmt.Println()
	}
	fmt.Println("\nthe classical threshold: K ≥ N suffices (and K = N − 1 fails).")

	// Live goroutine ring at a comfortable size.
	const procs = 10
	proto, err := repro.NewProtocol("kstate", procs, procs)
	if err != nil {
		return err
	}
	legit, err := sim.LegitimateConfig(proto)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(3))
	start := sim.Corrupt(proto, legit, procs, rng)
	fmt.Printf("\nlive ring, %d processes, fully corrupted start %v\n", procs, start)
	live := &repro.LiveRing{Proto: proto, MaxSteps: 1000000}
	res, err := live.Run(start)
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v after %d moves; final %v (tokens=%d)\n",
		res.Converged, res.Steps, res.Final, sim.TokenCount(proto, res.Final))
	return nil
}
