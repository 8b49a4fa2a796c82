package sim

import "testing"

// TestLiveRingEveryProcessMoves: with RunAfterConvergence the token
// keeps circulating after legitimacy, so over a modest budget every
// process of a small ring must execute at least one move.
func TestLiveRingEveryProcessMoves(t *testing.T) {
	p := newProto("dijkstra3", 4, 0)
	lr := &LiveRing{Proto: p, MaxSteps: 2000, Seed: 3, RunAfterConvergence: true}
	res, err := lr.Run(Config{2, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("live ring did not converge: %+v", res)
	}
	total := 0
	for i, m := range res.Moves {
		if m == 0 {
			t.Errorf("process %d never moved: moves %v", i, res.Moves)
		}
		total += m
	}
	if total != lr.MaxSteps {
		t.Fatalf("RunAfterConvergence should spend the whole budget: %d moves of %d", total, lr.MaxSteps)
	}
	if res.Steps <= 0 || res.Steps > lr.MaxSteps {
		t.Fatalf("steps-to-legitimacy out of range: %d", res.Steps)
	}
}

// TestLiveRingMoveCounters: without RunAfterConvergence the counters
// still sum to the executed steps.
func TestLiveRingMoveCounters(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	lr := &LiveRing{Proto: p, MaxSteps: 100_000, Seed: 7}
	res, err := lr.Run(Config{0, 2, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("live ring did not converge: %+v", res)
	}
	if len(res.Moves) != p.Procs() {
		t.Fatalf("moves slice has %d entries, want %d", len(res.Moves), p.Procs())
	}
	total := 0
	for _, m := range res.Moves {
		total += m
	}
	if total != res.Steps {
		t.Fatalf("per-process moves sum to %d, steps-to-legitimacy is %d", total, res.Steps)
	}
}

// TestLiveRingImmediatelyLegitimateCounters: an already-legitimate
// start with no after-run reports zeroed counters.
func TestLiveRingImmediatelyLegitimateCounters(t *testing.T) {
	p := newProto("dijkstra3", 4, 0)
	legit, err := LegitimateConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&LiveRing{Proto: p, MaxSteps: 10}).Run(legit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("want immediate convergence, got %+v", res)
	}
	for i, m := range res.Moves {
		if m != 0 {
			t.Fatalf("process %d reported %d moves on an immediate return", i, m)
		}
	}
}
