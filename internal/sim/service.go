package sim

import (
	"fmt"
	"slices"
)

// ServiceStats measures the ring as a mutual-exclusion service — the
// application Dijkstra's systems exist for. A process "enters its
// critical section" when it fires while privileged; the service is
// correct when at most one process is privileged (so no two can be in
// the critical section), and fair when entries spread over all
// processes.
type ServiceStats struct {
	// Steps is the number of moves executed.
	Steps int
	// ViolationSteps counts moves taken while the configuration held
	// more than one token — critical-section safety was at risk there.
	ViolationSteps int
	// StepsToSafety is the index of the first move after which the
	// configuration held at most one token forever (within the run).
	StepsToSafety int
	// Entries counts critical-section entries (moves) per process.
	Entries []int
}

// MinEntries returns the least-served process's entry count.
func (s *ServiceStats) MinEntries() int {
	if len(s.Entries) == 0 {
		return 0
	}
	return slices.Min(s.Entries)
}

// MaxEntries returns the most-served process's entry count.
func (s *ServiceStats) MaxEntries() int {
	if len(s.Entries) == 0 {
		return 0
	}
	return slices.Max(s.Entries)
}

// MeasureService runs the protocol for exactly `steps` moves from start
// under the daemon and reports safety violations and per-process service.
func MeasureService(p *Protocol, d Daemon, start Config, steps int) (*ServiceStats, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("sim: steps must be positive, got %d", steps)
	}
	if err := Validate(p, start); err != nil {
		return nil, err
	}
	cur := start.Clone()
	stats := &ServiceStats{Entries: make([]int, p.Procs())}
	lastViolation := -1
	var moves []Move
	for i := 0; i < steps; i++ {
		var tokens int
		moves, tokens = p.scan(moves[:0], cur)
		if len(moves) == 0 {
			return nil, fmt.Errorf("sim: deadlock at %v", cur)
		}
		if ob, isObserver := d.(observer); isObserver {
			ob.Observe(cur)
		}
		m := d.Choose(moves)
		if tokens > 1 {
			stats.ViolationSteps++
			lastViolation = i
		}
		cur[m.Proc] = m.NewVal
		stats.Entries[m.Proc]++
		stats.Steps++
	}
	stats.StepsToSafety = lastViolation + 1
	return stats, nil
}
