package sim

import (
	"slices"
	"testing"
)

// expectedGreedy recomputes the adversarial pick independently of the
// daemon: the move whose successor has the most tokens, ties broken by
// move order (processes ascending, rules in declaration order).
func expectedGreedy(p *Protocol, c Config, moves []Move) (Move, int) {
	best := moves[0]
	bestTokens := -1
	for _, m := range moves {
		succ := c.Clone()
		succ[m.Proc] = m.NewVal
		if tokens := TokenCount(p, succ); tokens > bestTokens {
			bestTokens = tokens
			best = m
		}
	}
	return best, bestTokens
}

// TestGreedyAdversarialPick: at [0,1,0,1,1] (dijkstra3, P=5) process 2
// can delete a token pair (successor: 1 token) while process 0 merely
// passes (successor keeps 2): the adversary must keep picking the
// passing move, deterministically.
func TestGreedyAdversarialPick(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	c := Config{0, 1, 0, 1, 1}
	moves := EnabledMoves(p, c)
	if len(moves) < 2 {
		t.Fatalf("configuration is not interesting: moves %v", moves)
	}
	want, wantTokens := expectedGreedy(p, c, moves)

	// The scenario must actually separate the moves: the adversarial
	// successor keeps more tokens than the worst alternative.
	worst := wantTokens
	for _, m := range moves {
		succ := c.Clone()
		succ[m.Proc] = m.NewVal
		if tokens := TokenCount(p, succ); tokens < worst {
			worst = tokens
		}
	}
	if worst >= wantTokens {
		t.Fatalf("all successors have %d tokens; pick a better test configuration", wantTokens)
	}

	d := NewGreedyDaemon(p)
	for i := 0; i < 10; i++ {
		if got := d.Choose(c, moves); got != want {
			t.Fatalf("iteration %d: chose %+v, want %+v", i, got, want)
		}
	}
	// Scoring makes and undoes each move in place: c comes back as it was.
	if !slices.Equal(c, Config{0, 1, 0, 1, 1}) {
		t.Fatalf("Choose left the configuration changed: %v", c)
	}
	// A fresh daemon over the same configuration agrees.
	d2 := NewGreedyDaemon(p)
	if got := d2.Choose(c, moves); got != want {
		t.Fatalf("fresh daemon chose %+v, want %+v", got, want)
	}
}

// TestGreedyFallbackNoWorseningMove: at [0,1,0,1,0] no enabled move
// increases the token count (stabilization at work). The daemon must
// fall back to the first move among the least-damaging ones — the
// lowest process index, rules in declaration order.
func TestGreedyFallbackNoWorseningMove(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	c := Config{0, 1, 0, 1, 0}
	moves := EnabledMoves(p, c)
	if len(moves) < 2 {
		t.Fatalf("configuration is not interesting: moves %v", moves)
	}
	current := TokenCount(p, c)
	want, wantTokens := expectedGreedy(p, c, moves)
	if wantTokens > current {
		t.Fatalf("a move worsens the ring (%d > %d tokens); this test wants the fallback case",
			wantTokens, current)
	}
	// The expected fallback is the lowest-index move achieving the max.
	for _, m := range moves {
		succ := c.Clone()
		succ[m.Proc] = m.NewVal
		if TokenCount(p, succ) == wantTokens {
			if m != want {
				t.Fatalf("tie broken away from the first maximal move: want %+v, first maximal %+v", want, m)
			}
			break
		}
	}
	d := NewGreedyDaemon(p)
	if got := d.Choose(c, moves); got != want {
		t.Fatalf("chose %+v, want fallback %+v", got, want)
	}
}
