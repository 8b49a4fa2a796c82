package sim

import "slices"

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
	stats := &ServiceStats{Steps: steps, Entries: make([]int, p.Procs())}
	lastViolation := -1
	r := &Runner{Proto: p, Daemon: d, MaxSteps: steps, RunAfterConvergence: true,
		OnStep: func(step int, _ Config, tokens int, m Move) {
			if tokens > 1 {
				stats.ViolationSteps++
				lastViolation = step
			}
			stats.Entries[m.Proc]++
		}}
	if _, err := r.Run(start); err != nil {
		return nil, err
	}
	stats.StepsToSafety = lastViolation + 1
	return stats, nil
}
