package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Daemon is a scheduler: given a configuration and its enabled moves it
// chooses which single move executes next (central-daemon semantics).
// The moves are listed in process order, and a process's moves in its
// rules' declaration order. Implementations must be deterministic given
// their own state, the configuration and the move list; randomness
// comes from an explicitly seeded source. A daemon may change c while
// it chooses but must restore it, and must not keep c after Choose
// returns.
type Daemon interface {
	// Name identifies the daemon in reports.
	Name() string
	// Choose picks one of the enabled moves of c (len(moves) ≥ 1).
	Choose(c Config, moves []Move) Move
}

// RandomDaemon picks uniformly at random with a seeded source.
type RandomDaemon struct {
	rng *rand.Rand
}

// NewRandomDaemon builds a random daemon from a seed.
func NewRandomDaemon(seed int64) *RandomDaemon {
	return &RandomDaemon{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Daemon.
func (d *RandomDaemon) Name() string { return "random" }

// Choose implements Daemon.
func (d *RandomDaemon) Choose(_ Config, moves []Move) Move {
	return moves[d.rng.Intn(len(moves))]
}

// RoundRobinDaemon sweeps process indices cyclically, granting the lowest
// enabled process at or after the cursor; among that process's moves it
// picks the first.
type RoundRobinDaemon struct {
	procs  int
	cursor int
}

// NewRoundRobinDaemon builds a round-robin daemon over p processes.
func NewRoundRobinDaemon(p int) *RoundRobinDaemon {
	if p <= 0 {
		panic(fmt.Sprintf("sim: round-robin daemon over %d processes", p))
	}
	return &RoundRobinDaemon{procs: p}
}

// Name implements Daemon.
func (d *RoundRobinDaemon) Name() string { return "round-robin" }

// Choose implements Daemon. Moves come in process order, so the first
// move at or after the cursor is the lowest such process's first move.
func (d *RoundRobinDaemon) Choose(_ Config, moves []Move) Move {
	m := moves[0]
	for _, mv := range moves {
		if mv.Proc >= d.cursor {
			m = mv
			break
		}
	}
	d.cursor = (m.Proc + 1) % d.procs
	return m
}

// GreedyDaemon is an adversarial heuristic: it picks the move whose
// successor configuration has the most tokens (slowest convergence),
// breaking ties by lowest process index. It scores a move by the token
// change at its process and the two beside it, all the move can change,
// making the move on the configuration and undoing it.
type GreedyDaemon struct {
	proto *Protocol
}

// NewGreedyDaemon builds the adversary for a protocol.
func NewGreedyDaemon(p *Protocol) *GreedyDaemon {
	return &GreedyDaemon{proto: p}
}

// Name implements Daemon.
func (d *GreedyDaemon) Name() string { return "greedy-adversary" }

// Choose implements Daemon.
func (d *GreedyDaemon) Choose(c Config, moves []Move) Move {
	around := func(i int) (n int) { // the privileged among i−1, i and i+1
		for j := i - 1; j <= i+1; j++ {
			if d.proto.TokenAt(c, (j+len(c))%len(c)) {
				n++
			}
		}
		return n
	}
	best, bestGain := moves[0], math.MinInt
	for _, m := range moves {
		// Score the move in place, and put the register back.
		old := c[m.Proc]
		gain := -around(m.Proc)
		c[m.Proc] = m.NewVal
		gain += around(m.Proc)
		c[m.Proc] = old
		if gain > bestGain {
			best, bestGain = m, gain
		}
	}
	return best
}
