package sim

import (
	"math/rand"
	"testing"
)

// traceUnder runs a protocol from start under d for the given number of
// steps, recording each chosen move. The daemon interface promises
// determinism given the daemon's own state, the configuration and the
// move list; identical replays with fresh daemons must therefore produce
// identical traces.
func traceUnder(t *testing.T, p *Protocol, d Daemon, start Config, steps int) []Move {
	t.Helper()
	var trace []Move
	r := &Runner{Proto: p, Daemon: d, MaxSteps: steps, RunAfterConvergence: true,
		OnStep: func(_ int, _ Config, _ int, m Move) { trace = append(trace, m) }}
	if _, err := r.Run(start); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestEachDaemonDeterministic runs every daemon twice over the same
// protocol and start configuration — fresh instance each time, same
// seed / cursor — and requires move-for-move identical schedules.
func TestEachDaemonDeterministic(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	cases := []struct {
		name string
		mk   func() Daemon
	}{
		{"random", func() Daemon { return NewRandomDaemon(42) }},
		{"round-robin", func() Daemon { return NewRoundRobinDaemon(p.Procs()) }},
		{"greedy-adversary", func() Daemon { return NewGreedyDaemon(p) }},
	}
	start := RandomConfig(p, rand.New(rand.NewSource(99)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := traceUnder(t, p, tc.mk(), start, 300)
			b := traceUnder(t, p, tc.mk(), start, 300)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d diverged: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestRoundRobinCursorAdvances pins the cursor semantics: the daemon
// grants the lowest enabled process at or after the cursor, then parks
// the cursor just past it.
func TestRoundRobinCursorAdvances(t *testing.T) {
	d := NewRoundRobinDaemon(4)
	moves := []Move{{Proc: 2, NewVal: 0}, {Proc: 3, NewVal: 0}}
	if got := d.Choose(nil, moves); got.Proc != 2 {
		t.Fatalf("cursor 0 over {2,3}: chose %d, want 2", got.Proc)
	}
	if d.cursor != 3 {
		t.Fatalf("cursor = %d after granting 2, want 3", d.cursor)
	}
	if got := d.Choose(nil, moves); got.Proc != 3 {
		t.Fatalf("cursor 3 over {2,3}: chose %d, want 3", got.Proc)
	}
	// Cursor wraps: 0 is not enabled, so the scan comes back around to 2.
	if got := d.Choose(nil, moves); got.Proc != 2 {
		t.Fatalf("wrapped cursor over {2,3}: chose %d, want 2", got.Proc)
	}
}

// TestLiveRingSmallRingsConverge exercises the goroutine-per-process
// ring for the two Dijkstra protocols at small N. Running under the race
// detector (make check) this also validates the locking discipline.
func TestLiveRingSmallRingsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range []*Protocol{newProto("dijkstra3", 4, 0), newProto("dijkstra4", 4, 0)} {
		for trial := 0; trial < 3; trial++ {
			legit, err := LegitimateConfig(p)
			if err != nil {
				t.Fatal(err)
			}
			start := Corrupt(p, legit, 2, rng)
			lr := &LiveRing{Proto: p, MaxSteps: 100_000}
			res, err := lr.Run(start)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if !res.Converged || !p.Legitimate(res.Final) {
				t.Fatalf("%s: trial %d from %v did not converge (result %+v)",
					p.Name(), trial, start, res)
			}
		}
	}
}
