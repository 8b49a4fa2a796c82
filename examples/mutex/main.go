// Mutual exclusion — the application the token rings exist for. The ring
// is run as a service: a process entering its critical section is a
// privileged process firing its move. From a legitimate configuration the
// service is safe (never two privileges) and fair (every process is
// served); after transient faults it is unsafe for a bounded recovery
// window and then safe again, which is precisely what "stabilizing to
// BTR" buys.
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
		fmt.Fprintln(os.Stderr, "mutex:", err)
		os.Exit(1)
	}
}

func run() error {
	const procs, steps = 9, 3000
	proto, err := repro.NewProtocol("dijkstra3", procs, 0)
	if err != nil {
		return err
	}
	legit, err := sim.LegitimateConfig(proto)
	if err != nil {
		return err
	}

	fmt.Printf("token ring as a mutual-exclusion service: %s, %d moves per run\n\n", proto.Name(), steps)

	// Fault-free service: safe and fair.
	stats, err := sim.MeasureService(proto, repro.NewRoundRobinDaemon(procs), legit, steps)
	if err != nil {
		return err
	}
	fmt.Println("fault-free run:")
	fmt.Printf("  safety violations: %d (steps with >1 privilege)\n", stats.ViolationSteps)
	fmt.Printf("  critical-section entries per process: %v\n", stats.Entries)
	fmt.Printf("  least/most served: %d/%d\n\n", stats.MinEntries(), stats.MaxEntries())

	// Transient faults: a bounded unsafe window, then safety forever.
	rng := rand.New(rand.NewSource(13))
	for _, faults := range []int{2, 5, 9} {
		start := sim.Corrupt(proto, legit, faults, rng)
		stats, err := sim.MeasureService(proto, repro.NewRandomDaemon(int64(faults)), start, steps)
		if err != nil {
			return err
		}
		fmt.Printf("after corrupting %d registers:\n", faults)
		fmt.Printf("  unsafe window: %d steps (violations during it: %d)\n",
			stats.StepsToSafety, stats.ViolationSteps)
		fmt.Printf("  service resumed safely for the remaining %d steps\n\n",
			stats.Steps-stats.StepsToSafety)
	}

	fmt.Println("the stabilization theorem behind the measurement:")
	btr := repro.NewBTR(procs - 1)
	three := repro.NewThreeState(procs - 1)
	alpha, err := three.Abstraction(btr)
	if err != nil {
		return err
	}
	rep := repro.Stabilizing(three.Dijkstra3(), btr.System(), alpha)
	fmt.Println(rep.Verdict)
	return nil
}
