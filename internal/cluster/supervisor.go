package cluster

import (
	"math/rand"

	"repro/internal/cluster/store"
	"repro/internal/sim"
)

// Crash-recovery policy, in engine steps. Backoff doubles per
// consecutive rapid crash (one within crashLoopWindow of the previous)
// from crashBackoffBase up to crashBackoffMax, plus seeded jitter in
// [0, crashBackoffBase) so simultaneous crashes do not restart in
// lockstep. crashLoopCount rapid crashes flag a crash loop.
const (
	crashBackoffBase = 8
	crashBackoffMax  = 64
	crashLoopWindow  = 100
	crashLoopCount   = 3
)

// Recovery sources reported on "recovered" events.
const (
	RecoverFromSnapshot  = "snapshot"
	RecoverFromArbitrary = "arbitrary"
)

// supervisor is the per-episode restart policy: it tracks which nodes
// are down, schedules their restarts under exponential backoff with
// seeded jitter, detects crash loops, and recovers register state from
// the snapshot store when the snapshot validates — and from arbitrary
// state when it does not. The latter is deliberate: a failed checksum
// means the disk lied, and the paper's convergence guarantee makes an
// arbitrary resume safe where trusting corrupt state would not be.
//
// All randomness is drawn from the engine's seeded rng, and only on
// crash events, so runs without crash faults replay byte-identically.
type supervisor struct {
	proto *sim.Protocol
	st    *store.Store
	rng   *rand.Rand
	mon   *Monitor

	downUntil []int // restart step per node; -1 = up
	consec    []int // consecutive rapid crashes
	lastCrash []int
	flagged   []bool // crash loop already reported for this burst
}

func newSupervisor(proto *sim.Protocol, st *store.Store, rng *rand.Rand, mon *Monitor) *supervisor {
	procs := proto.Procs()
	s := &supervisor{
		proto:     proto,
		st:        st,
		rng:       rng,
		mon:       mon,
		downUntil: make([]int, procs),
		consec:    make([]int, procs),
		lastCrash: make([]int, procs),
		flagged:   make([]bool, procs),
	}
	for i := range s.downUntil {
		s.downUntil[i] = -1
		s.lastCrash[i] = -(crashLoopWindow + 1)
	}
	return s
}

// down reports whether node is currently crashed.
func (s *supervisor) down(node int) bool { return s.downUntil[node] >= 0 }

// crash records a crash fault at step: emits the crashed event,
// schedules the restart under backoff + jitter, and flags crash loops.
func (s *supervisor) crash(step int, f Fault) {
	node := f.Node
	if step-s.lastCrash[node] > crashLoopWindow {
		s.consec[node] = 0
		s.flagged[node] = false
	}
	s.consec[node]++
	s.lastCrash[node] = step
	s.mon.ObserveCrash(step, f)
	if s.consec[node] >= crashLoopCount && !s.flagged[node] {
		s.flagged[node] = true
		s.mon.ObserveCrashLoop(step, node, s.consec[node])
	}
	backoff := crashBackoffBase
	for i := 1; i < s.consec[node] && backoff < crashBackoffMax; i++ {
		backoff *= 2
	}
	if backoff > crashBackoffMax {
		backoff = crashBackoffMax
	}
	s.downUntil[node] = step + backoff + s.rng.Intn(crashBackoffBase)
}

// due returns the nodes whose backoff expires by step, in node order so
// the restart sequence is deterministic.
func (s *supervisor) due(step int) []int {
	var out []int
	for i, at := range s.downUntil {
		if at >= 0 && at <= step {
			out = append(out, i)
		}
	}
	return out
}

// restart marks node up again and recovers its register: the snapshot's
// value when the store has one that validates (checksum, identity,
// generation) and lies in the register domain, an arbitrary seeded
// value otherwise.
func (s *supervisor) restart(node int) (val int, from string) {
	s.downUntil[node] = -1
	if s.st != nil {
		if _, v, err := s.st.Load(node); err == nil && v >= 0 && v < s.proto.Domain(node) {
			return v, RecoverFromSnapshot
		}
	}
	return s.rng.Intn(s.proto.Domain(node)), RecoverFromArbitrary
}
