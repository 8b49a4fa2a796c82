package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bidding"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/vm"
)

// E2Compiler machine-checks the Section 1 compiler example.
func E2Compiler() *Report {
	r := &Report{
		ID:    "E2",
		Title: "Section 1: compilation does not preserve tolerance",
		Claim: "the source loop tolerates corruption of x; its naive compilation does not; a read-once compilation does",
	}
	src, err := vm.ParseSource("int x = 0;\nwhile (x == x) { x = 0; }")
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "parse", Detail: err.Error()})
		return r
	}
	sourceTol := core.Stabilizing(vm.SourceLoopSystem(2), vm.AlwaysZeroSpec(2), nil)
	r.Rows = append(r.Rows, expectRow("source stabilizing to (x always 0)", sourceTol.Holds, true, sourceTol.Reason))

	for _, tc := range []struct {
		strategy vm.Strategy
		want     bool
	}{
		{vm.Naive, false},
		{vm.ReadOnce, true},
	} {
		prog, _, err := vm.Compile(src, tc.strategy)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: tc.strategy.String(), Detail: err.Error()})
			continue
		}
		m := &vm.Machine{Prog: prog, MaxVal: 2, MaxStack: 2}
		md, err := vm.NewModel(m, 1, []int{0})
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: tc.strategy.String(), Detail: err.Error()})
			continue
		}
		rep, err := vm.CheckLocalFaultStabilization(md, vm.AlwaysZeroSpec(2), 0)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: tc.strategy.String(), Detail: err.Error()})
			continue
		}
		r.Rows = append(r.Rows, expectRow(
			fmt.Sprintf("%s compilation tolerant=%v (%d instrs)", tc.strategy, tc.want, len(prog)),
			rep.Holds, tc.want, rep.Reason))
	}
	return r
}

// E3Bidding measures the Section 1 bidding-server example.
func E3Bidding() *Report {
	r := &Report{
		ID:    "E3",
		Title: "Section 1: bidding server under single-bid corruption",
		Claim: "the spec delivers (k−1)-of-best-k under one corrupted bid; the sorted-list refinement does not; the scan-min repair does",
	}
	const k, trials, streamLen, maxBid = 4, 200, 60, 100
	for _, tc := range []struct {
		mk       func() bidding.Server
		wantFull bool
	}{
		{func() bidding.Server { return bidding.NewSpec(k) }, true},
		{func() bidding.Server { return bidding.NewScanMin(k) }, true},
		{func() bidding.Server { return bidding.NewSortedList(k) }, false},
	} {
		name := tc.mk().Name()
		stats, err := bidding.MeasureTolerance(tc.mk, trials, streamLen, maxBid, 7)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: name, Detail: err.Error()})
			continue
		}
		full := stats.Satisfied == stats.Trials
		r.Rows = append(r.Rows, expectRow(
			fmt.Sprintf("%s: satisfies bar in all trials=%v", name, tc.wantFull),
			full, tc.wantFull,
			fmt.Sprintf("%d/%d trials, mean overlap %.2f of %d", stats.Satisfied, stats.Trials, stats.MeanOverlap, k)))
	}
	return r
}

// E11Convergence measures steps-to-stabilization versus ring size, fault
// count, and daemon, for every derived protocol — the evaluation figures a
// systems venue would expect.
func E11Convergence() *Report {
	r := &Report{
		ID:    "E11",
		Title: "Convergence time of the derived protocols",
		Claim: "all derived protocols converge from arbitrary corruption; steps grow with ring size and fault count",
		Notes: []string{"series: mean steps over 100 seeded runs, random central daemon, faults = P"},
	}
	const runs, maxSteps = 100, 100000
	protos := func(p int) []*sim.Protocol {
		return []*sim.Protocol{
			protocol("dijkstra3", p, 0),
			protocol("dijkstra4", p, 0),
			protocol("kstate", p, p),
			protocol("newthree", p, 0),
		}
	}
	var prevMean float64
	for _, p := range []int{4, 6, 8, 10} {
		for _, proto := range protos(p) {
			stats, err := sim.MeasureConvergence(proto,
				func(run int) sim.Daemon { return sim.NewRandomDaemon(int64(run)) },
				runs, p, maxSteps, int64(p))
			if err != nil {
				r.Rows = append(r.Rows, Row{Name: proto.Name(), Detail: err.Error()})
				continue
			}
			r.Rows = append(r.Rows, expectRow(
				fmt.Sprintf("P=%d %s", p, proto.Name()),
				stats.Converged == stats.Runs, true,
				fmt.Sprintf("mean %.1f steps, max %d, %d/%d converged", stats.MeanSteps, stats.MaxSteps, stats.Converged, stats.Runs)))
			_ = prevMean
		}
	}
	// Fault-count sweep at fixed size.
	const p = 8
	for _, faults := range []int{1, 2, 4, 8} {
		stats, err := sim.MeasureConvergence(protocol("dijkstra3", p, 0),
			func(run int) sim.Daemon { return sim.NewRandomDaemon(int64(run)) },
			runs, faults, maxSteps, 17)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("faults=%d", faults), Detail: err.Error()})
			continue
		}
		r.Rows = append(r.Rows, expectRow(
			fmt.Sprintf("P=%d dijkstra3 faults=%d", p, faults),
			stats.Converged == stats.Runs, true,
			fmt.Sprintf("mean %.1f steps", stats.MeanSteps)))
	}
	// Exact adversarial worst case from the model: outside the legitimate
	// region a stabilizing system is acyclic, so the worst-case recovery
	// is the longest path — the upper envelope of every measured curve.
	for _, n := range []int{3, 5, 7} {
		d3 := ring.NewThreeState(n).Dijkstra3()
		rep := core.SelfStabilizing(d3)
		if !rep.Holds {
			r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("N=%d worst case", n), Detail: rep.Reason})
			continue
		}
		worst, err := mc.WorstCaseRecovery(d3, rep.Legitimate)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("N=%d worst case", n), Detail: err.Error()})
			continue
		}
		r.Rows = append(r.Rows, expectRow(
			fmt.Sprintf("P=%d dijkstra3 exact adversarial worst case", n+1),
			worst > 0, true,
			fmt.Sprintf("%d steps (model longest path outside the legitimate region)", worst)))
	}
	// Daemon comparison.
	for _, mk := range []struct {
		name string
		fn   func(run int) sim.Daemon
	}{
		{"random", func(run int) sim.Daemon { return sim.NewRandomDaemon(int64(run)) }},
		{"round-robin", func(run int) sim.Daemon { return sim.NewRoundRobinDaemon(p) }},
		{"greedy-adversary", func(run int) sim.Daemon { return sim.NewGreedyDaemon(protocol("dijkstra3", p, 0)) }},
	} {
		stats, err := sim.MeasureConvergence(protocol("dijkstra3", p, 0), mk.fn, runs, p, maxSteps, 23)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: mk.name, Detail: err.Error()})
			continue
		}
		r.Rows = append(r.Rows, expectRow(
			fmt.Sprintf("P=%d dijkstra3 daemon=%s", p, mk.name),
			stats.Converged == stats.Runs, true,
			fmt.Sprintf("mean %.1f steps, max %d", stats.MeanSteps, stats.MaxSteps)))
	}
	return r
}

// E12WrapperInterference measures the Section 5.1 non-interference
// argument on the new 3-state system: W1″-created tokens are compensated
// by W2' deletions (and endpoint absorptions), so runs converge and W1″
// activity dies out.
func E12WrapperInterference() *Report {
	r := &Report{
		ID:    "E12",
		Title: "Wrapper interference: W1'' creation vs W2' deletion",
		Claim: "between consecutive W1'' firings the system sheds tokens; W1'' cannot fire infinitely often",
	}
	const p, maxSteps = 7, 50000
	proto := protocol("newthree", p, 0)

	// In the all-equal (token-free middles) configuration, W1'' is the
	// only enabled rule: token regeneration is exactly its job.
	allEqual := make(sim.Config, p)
	moves := sim.EnabledMoves(proto, allEqual)
	onlyW1 := len(moves) == 1 && moves[0].Rule == "W1pp"
	r.Rows = append(r.Rows, expectRow("all-equal: only W1'' enabled", onlyW1, true,
		fmt.Sprintf("%d moves enabled", len(moves))))

	// Randomized recovery runs: count wrapper activity.
	var totalW1, totalW2 int
	for seed := int64(0); seed < 10; seed++ {
		rng := newSeededRand(seed)
		start := sim.RandomConfig(proto, rng)
		var w1, w2 int
		runner := &sim.Runner{
			Proto:    proto,
			Daemon:   sim.NewRandomDaemon(seed),
			MaxSteps: maxSteps,
			OnStep: func(_ int, _ sim.Config, _ int, m sim.Move) {
				switch m.Rule {
				case "W1pp":
					w1++
				case "W2p":
					w2++
				}
			},
		}
		res, err := runner.Run(start)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: fmt.Sprintf("seed=%d", seed), Detail: err.Error()})
			continue
		}
		totalW1 += w1
		totalW2 += w2
		r.Rows = append(r.Rows, expectRow(
			fmt.Sprintf("seed=%d: converged", seed),
			res.Converged, true,
			fmt.Sprintf("%d steps, W1''=%d, W2'=%d, max tokens %d", res.Steps, w1, w2, res.MaxTokens)))
	}
	r.Rows = append(r.Rows, expectRow("wrappers exercised across seeds",
		totalW1 >= 1 && totalW2 >= 1, true,
		fmt.Sprintf("ΣW1''=%d ΣW2'=%d", totalW1, totalW2)))
	return r
}

// protocol builds a simulator protocol from parameters known to be
// valid.
func protocol(family string, p, k int) *sim.Protocol {
	proto, err := sim.NewProtocol(family, p, k)
	if err != nil {
		panic(err)
	}
	return proto
}

// newSeededRand builds a deterministic random source for experiment runs.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
