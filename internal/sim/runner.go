package sim

import (
	"context"
	"fmt"
	"math/rand"
)

// Result summarizes one run.
type Result struct {
	// Converged reports whether a legitimate configuration was reached
	// within the step budget.
	Converged bool
	// Steps is the number of moves executed before the first legitimate
	// configuration (or the full budget if not converged).
	Steps int
	// Final is the last configuration.
	Final Config
	// MaxTokens is the largest token count observed.
	MaxTokens int
}

// Runner executes a protocol under a daemon. It is the one loop that
// steps a ring; callers read a run through OnStep.
type Runner struct {
	// Proto is the protocol under test.
	Proto *Protocol
	// Daemon schedules moves.
	Daemon Daemon
	// MaxSteps bounds the run (required, > 0).
	MaxSteps int
	// RunAfterConvergence keeps executing for the remaining budget after legitimacy is reached — used by the
	// token-circulation experiments.
	RunAfterConvergence bool
	// OnStep, if set, is called once per move: after the daemon picks m
	// in c, which holds tokens tokens, and before m is applied. c is the
	// runner's own configuration; OnStep must not change or keep it.
	OnStep func(step int, c Config, tokens int, m Move)
}

// Run executes from the given initial configuration.
func (r *Runner) Run(initial Config) (*Result, error) {
	return r.RunCtx(context.Background(), initial)
}

// RunCtx is Run with cancellation: it polls the context every 64 steps,
// so a run over a large ring stops promptly at its deadline. A step makes
// one pass over the ring, listing its moves and counting its tokens.
func (r *Runner) RunCtx(ctx context.Context, initial Config) (*Result, error) {
	if r.MaxSteps <= 0 {
		return nil, fmt.Errorf("sim: MaxSteps must be positive, got %d", r.MaxSteps)
	}
	if err := Validate(r.Proto, initial); err != nil {
		return nil, err
	}
	cur := initial.Clone()
	res := &Result{Final: cur}
	moves, tokens := r.Proto.scan(nil, cur)
	res.MaxTokens, res.Converged = tokens, tokens == 1

	for step := 0; step < r.MaxSteps; step++ {
		if step%64 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if res.Converged && !r.RunAfterConvergence {
			break
		}
		if len(moves) == 0 {
			// Deadlock: the derived protocols never deadlock; reaching
			// here means the protocol or configuration is broken.
			return nil, fmt.Errorf("sim: deadlock at %v under %s", cur, r.Proto.Name())
		}
		m := r.Daemon.Choose(cur, moves)
		if r.OnStep != nil {
			r.OnStep(step, cur, tokens, m)
		}
		cur[m.Proc] = m.NewVal
		moves, tokens = r.Proto.scan(moves[:0], cur)
		res.MaxTokens = max(res.MaxTokens, tokens)
		if !res.Converged {
			res.Steps = step + 1
			res.Converged = tokens == 1
		}
	}
	return res, nil
}

// LegitimateConfig returns the canonical legitimate configuration: all
// registers zero, where every family's ring template starts.
func LegitimateConfig(p *Protocol) (Config, error) {
	c := make(Config, p.Procs())
	if !p.Legitimate(c) {
		return nil, fmt.Errorf("sim: the all-zero configuration of %s is not legitimate", p.Name())
	}
	return c, nil
}

// Corrupt returns a copy of c with k registers set to uniformly random
// in-domain values (the transient-fault model: arbitrary corruption of
// process states).
func Corrupt(p *Protocol, c Config, k int, rng *rand.Rand) Config {
	out := c.Clone()
	procs := p.Procs()
	if k > procs {
		k = procs
	}
	perm := rng.Perm(procs)
	for _, i := range perm[:k] {
		out[i] = rng.Intn(p.Domain(i))
	}
	return out
}

// RandomConfig returns a uniformly random configuration.
func RandomConfig(p *Protocol, rng *rand.Rand) Config {
	c := make(Config, p.Procs())
	for i := range c {
		c[i] = rng.Intn(p.Domain(i))
	}
	return c
}

// ConvergenceStats aggregates steps-to-convergence over many runs.
type ConvergenceStats struct {
	// Runs is the number of runs aggregated.
	Runs int
	// Converged is how many reached legitimacy in budget.
	Converged int
	// MeanSteps and MaxSteps summarize steps-to-legitimacy over converged
	// runs.
	MeanSteps float64
	MaxSteps  int
}

// MeasureConvergence runs `runs` corrupted starts (k faults from a
// legitimate configuration) and aggregates. mkDaemon builds a fresh daemon
// per run (daemons are stateful).
func MeasureConvergence(p *Protocol, mkDaemon func(run int) Daemon, runs, faults, maxSteps int, seed int64) (*ConvergenceStats, error) {
	return MeasureConvergenceCtx(context.Background(), p, mkDaemon, runs, faults, maxSteps, seed)
}

// MeasureConvergenceCtx is MeasureConvergence with cancellation: every
// run polls the context as it steps, so a long aggregation (checkd's
// /v1/ringsim workload) stops promptly when its deadline fires.
func MeasureConvergenceCtx(ctx context.Context, p *Protocol, mkDaemon func(run int) Daemon, runs, faults, maxSteps int, seed int64) (*ConvergenceStats, error) {
	rng := rand.New(rand.NewSource(seed))
	legit, err := LegitimateConfig(p)
	if err != nil {
		return nil, err
	}
	stats := &ConvergenceStats{Runs: runs}
	total := 0
	for run := 0; run < runs; run++ {
		start := Corrupt(p, legit, faults, rng)
		r := &Runner{Proto: p, Daemon: mkDaemon(run), MaxSteps: maxSteps}
		res, err := r.RunCtx(ctx, start)
		if err != nil {
			return nil, err
		}
		if res.Converged {
			stats.Converged++
			total += res.Steps
			if res.Steps > stats.MaxSteps {
				stats.MaxSteps = res.Steps
			}
		}
	}
	if stats.Converged > 0 {
		stats.MeanSteps = float64(total) / float64(stats.Converged)
	}
	return stats, nil
}
