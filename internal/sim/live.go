package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// LiveResult summarizes a live (goroutine-per-process) run.
type LiveResult struct {
	// Converged reports whether legitimacy was reached within MaxSteps.
	Converged bool
	// Steps is the number of moves executed until the first legitimate
	// configuration (or the budget if not converged).
	Steps int
	// Final is the configuration at stop time.
	Final Config
	// Moves counts executed moves per process over the whole run
	// (including steps after convergence when RunAfterConvergence is
	// set).
	Moves []int
}

// LiveRing executes a protocol with one goroutine per process. Each
// process repeatedly locks the shared configuration, evaluates its own
// guards against its neighbors' registers, and executes one enabled move.
// The Go runtime's scheduling order *is* the daemon: an arbitrary,
// non-deterministic but serial (central-daemon) scheduler, since moves are
// mutually exclusive under the configuration lock.
//
// When a process has several enabled moves it picks one with its own
// seeded RNG — always taking the first would silently bias the schedule
// toward "up" rules and away from the move interleavings the model
// checker quantifies over.
//
// This is the repository's "real" concurrent ring — the model checker
// proves stabilization over all schedules, and LiveRing demonstrates it on
// an actual scheduler. internal/cluster goes one step further and drops
// the shared configuration entirely in favor of message passing.
type LiveRing struct {
	// Proto is the protocol to run.
	Proto *Protocol
	// MaxSteps bounds the total number of moves (required, > 0).
	MaxSteps int
	// Seed drives each process's move choice (process i uses a source
	// derived from Seed and i).
	Seed int64
	// RunAfterConvergence keeps the ring running (and counting moves)
	// for the remaining budget after legitimacy is reached — in the
	// legitimate region the token keeps circulating, so this is how
	// every process gets to move.
	RunAfterConvergence bool
}

// Run executes from initial until legitimacy or the step budget, blocking
// until all process goroutines have exited.
func (lr *LiveRing) Run(initial Config) (*LiveResult, error) {
	if lr.MaxSteps <= 0 {
		return nil, fmt.Errorf("sim: MaxSteps must be positive, got %d", lr.MaxSteps)
	}
	if err := Validate(lr.Proto, initial); err != nil {
		return nil, err
	}

	procs := lr.Proto.Procs()
	var (
		mu           sync.Mutex
		cur          = initial.Clone()
		steps        int
		stepsToLegit int
		converged    bool
		done         bool
		moveCount    = make([]int, procs)
	)
	if lr.Proto.Legitimate(cur) {
		converged = true
		if !lr.RunAfterConvergence {
			return &LiveResult{Converged: true, Steps: 0, Final: cur, Moves: moveCount}, nil
		}
	}

	var wg sync.WaitGroup
	wg.Add(procs)
	for i := 0; i < procs; i++ {
		//gcvet:leak-ok workers exit via the mutex-guarded done flag, set at MaxSteps at the latest; wg.Wait below joins them
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(lr.Seed + int64(i)*7919 + 1))
			var moves []Move // reused across this process's turns
			left := (i - 1 + procs) % procs
			right := (i + 1) % procs
			for {
				mu.Lock()
				if done {
					mu.Unlock()
					return
				}
				moves, _ = lr.Proto.cell(moves[:0], i, cur[left], cur[i], cur[right])
				if len(moves) > 0 {
					m := moves[rng.Intn(len(moves))]
					cur[i] = m.NewVal
					steps++
					moveCount[i]++
					if !converged && lr.Proto.Legitimate(cur) {
						converged = true
						stepsToLegit = steps
					}
					if (converged && !lr.RunAfterConvergence) || steps >= lr.MaxSteps {
						done = true
					}
				}
				mu.Unlock()
				// Let other processes contend for the lock; a disabled
				// process spinning would otherwise starve the enabled one
				// on a single-threaded runtime.
				runtime.Gosched()
			}
		}(i)
	}
	wg.Wait()

	res := &LiveResult{Converged: converged, Final: cur, Moves: moveCount}
	if converged {
		res.Steps = stepsToLegit
	} else {
		res.Steps = steps
	}
	return res, nil
}
