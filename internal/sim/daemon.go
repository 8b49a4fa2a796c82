package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Daemon is a scheduler: given the enabled moves of a configuration it
// chooses which single move executes next (central-daemon semantics).
// Implementations must be deterministic given their own state and the
// move list; randomness comes from an explicitly seeded source.
type Daemon interface {
	// Name identifies the daemon in reports.
	Name() string
	// Choose picks one of the enabled moves (len(moves) ≥ 1).
	Choose(moves []Move) Move
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
func (d *RandomDaemon) Choose(moves []Move) Move {
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

// Choose implements Daemon.
func (d *RoundRobinDaemon) Choose(moves []Move) Move {
	for off := 0; off < d.procs; off++ {
		want := (d.cursor + off) % d.procs
		for _, m := range moves {
			if m.Proc == want {
				d.cursor = (want + 1) % d.procs
				return m
			}
		}
	}
	// Unreachable for len(moves) ≥ 1; keep the daemon total anyway.
	return moves[0]
}

// GreedyDaemon is an adversarial heuristic: it picks the move whose
// successor configuration has the most tokens (slowest convergence),
// breaking ties by lowest process index. It scores a move by the token
// change at its process and the two beside it, all the move can change,
// making the move on the observed configuration and undoing it.
type GreedyDaemon struct {
	proto *Protocol
	cur   Config
}

// NewGreedyDaemon builds the adversary for a protocol.
func NewGreedyDaemon(p *Protocol) *GreedyDaemon {
	return &GreedyDaemon{proto: p}
}

// Name implements Daemon.
func (d *GreedyDaemon) Name() string { return "greedy-adversary" }

// Observe gives the daemon the current configuration; the Runner calls it
// before each Choose.
func (d *GreedyDaemon) Observe(c Config) { d.cur = c }

// Choose implements Daemon.
func (d *GreedyDaemon) Choose(moves []Move) Move {
	if d.cur == nil {
		return moves[0]
	}
	around := func(i int) (n int) { // the privileged among i−1, i and i+1
		for j := i - 1; j <= i+1; j++ {
			if d.proto.TokenAt(d.cur, (j+len(d.cur))%len(d.cur)) {
				n++
			}
		}
		return n
	}
	best, bestGain := moves[0], math.MinInt
	for _, m := range moves {
		// Score the move in place, and put the register back.
		old := d.cur[m.Proc]
		gain := -around(m.Proc)
		d.cur[m.Proc] = m.NewVal
		gain += around(m.Proc)
		d.cur[m.Proc] = old
		if gain > bestGain {
			best, bestGain = m, gain
		}
	}
	return best
}

// observer is implemented by daemons that want to see the configuration
// before choosing.
type observer interface {
	Observe(c Config)
}
