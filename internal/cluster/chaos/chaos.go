// Package chaos is the campaign engine over the cluster runtime: it
// runs many seeded episodes of a protocol under generated fault
// schedules and judges each against a recovery SLO. Where one cluster
// episode answers "did the ring recover from this schedule", a campaign
// answers the operational question the paper's convergence property
// implies: across a whole distribution of fault pressure — density,
// kind mix, inter-fault gap, partitions — does the ring always
// re-stabilize within budget, and what does the recovery-time tail look
// like?
//
// Campaigns over the stepped in-proc transport are deterministic: the
// same (protocol, template, SLO, seed, episodes) produces a
// byte-identical JSON report, so a chaos run can be pinned in CI.
// Campaigns over TCP free-run and report the same structure without
// reproducibility.
package chaos

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/cluster/store"
	"repro/internal/sim"
)

// SLO is the recovery service-level objective an episode must meet.
// The zero value only requires convergence (no silent livelock).
type SLO struct {
	// RecoverySteps bounds every single recovery: each stabilization in
	// an episode must complete within this many steps of losing
	// legitimacy (0 = unbounded).
	RecoverySteps int `json:"recovery_steps,omitempty"`
	// MaxTokens bounds the privilege count at every observed event; the
	// token count exceeding it means the fault pushed the ring further
	// from the legitimate region than the budget allows (0 = unchecked).
	MaxTokens int `json:"max_tokens,omitempty"`
}

// Options configures one campaign.
type Options struct {
	// Proto is the ring protocol under test (required).
	Proto *sim.Protocol
	// NewTransport builds one transport per episode; nil means the
	// deterministic stepped in-proc transport. Each episode gets a fresh
	// transport, closed when the episode ends.
	NewTransport func(procs int) (cluster.Transport, error)
	// Seed drives everything: episode e of a campaign derives its
	// schedule and its cluster seed from Seed and e alone.
	Seed int64
	// Episodes is the number of episodes to run (required, ≥ 1).
	Episodes int
	// MaxSteps bounds each episode; an episode that has not
	// re-stabilized by then is an SLO violation (required, > 0).
	MaxSteps int
	// Template generates each episode's fault schedule.
	Template Template
	// SLO is the recovery objective; its zero value requires only
	// convergence.
	SLO SLO
	// RefreshEvery is passed through to the cluster engine: a periodic
	// anti-entropy round every so many steps (0 = only on partition
	// heals).
	RefreshEvery int
	// Persist gives each episode a fresh in-memory snapshot store, so
	// crash faults recover from persisted state instead of resuming
	// arbitrary. Stores never outlive their episode and never touch the
	// host disk.
	Persist bool
	// PersistEvery is the snapshot interval in steps (≤ 0 = every step).
	PersistEvery int
	// StorageFaultEvery puts a seeded storage-fault injector (derived
	// from each episode's seed) under the store, faulting every Nth
	// snapshot write with a kind from StorageFaultKinds (0 = no storage
	// faults). Requires Persist.
	StorageFaultEvery int
	// StorageFaultKinds is the storage-fault mix (torn, bitflip, stale,
	// missing, enospc); defaults to the four silent-corruption kinds
	// when StorageFaultEvery is set. The enospc kind (disk-pressure:
	// short write + surfaced error) is opt-in so existing seeded
	// campaign pins stay stable.
	StorageFaultKinds []store.FaultKind
}

// Recovery is one completed convergence episode inside an episode,
// attributed to a fault kind: the kind of the last fault (or cut heal)
// the monitor observed before the ring re-stabilized — the disturbance
// the ring had to overcome last.
type Recovery struct {
	Kind     string `json:"kind"`
	BrokenAt int    `json:"broken_at"`
	StableAt int    `json:"stable_at"`
	Steps    int    `json:"steps"`
}

// Episode summarizes one judged episode.
type Episode struct {
	// Index is the episode's position in the campaign; Seed is the
	// cluster seed it ran with.
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// Schedule is the generated fault schedule in canonical syntax.
	Schedule string `json:"schedule"`
	// Steps and Moves mirror the cluster result.
	Steps int `json:"steps"`
	Moves int `json:"moves"`
	// Converged reports whether the episode ended legitimate.
	Converged bool `json:"converged"`
	// Recoveries are the completed convergence episodes with fault-kind
	// attribution.
	Recoveries []Recovery `json:"recoveries,omitempty"`
	// MaxTokens is the highest privilege count at any observed event.
	MaxTokens int `json:"max_tokens"`
	// Storage reports the episode's snapshot-store counters when
	// persistence was on.
	Storage *store.Stats `json:"storage,omitempty"`
	// Violations lists every SLO breach; empty means the episode passed.
	Violations []string `json:"violations,omitempty"`
}

// Pass reports whether the episode met the SLO.
func (e *Episode) Pass() bool { return len(e.Violations) == 0 }

// episodeSeed derives episode e's cluster seed; the schedule RNG uses a
// further derivation so schedule shape and scheduler choices are
// independent streams.
func episodeSeed(seed int64, e int) int64 { return seed*1_000_003 + int64(e)*7919 + 13 }

// Run executes one campaign: Episodes episodes of Proto under
// schedules drawn from Template, each judged against SLO. The returned
// report is deterministic for stepped transports.
func Run(ctx context.Context, opts Options) (*Report, error) {
	p := opts.Proto
	if p == nil {
		return nil, fmt.Errorf("chaos: Options.Proto is required")
	}
	if opts.Episodes < 1 {
		return nil, fmt.Errorf("chaos: Episodes must be ≥ 1, got %d", opts.Episodes)
	}
	if opts.MaxSteps <= 0 {
		return nil, fmt.Errorf("chaos: MaxSteps must be positive, got %d", opts.MaxSteps)
	}
	if err := opts.Template.Validate(); err != nil {
		return nil, err
	}
	if opts.StorageFaultEvery > 0 && !opts.Persist {
		return nil, fmt.Errorf("chaos: StorageFaultEvery needs Persist")
	}
	legit, err := sim.LegitimateConfig(p)
	if err != nil {
		return nil, fmt.Errorf("chaos: no legitimate start for %q: %w", p.Name(), err)
	}

	rep := &Report{
		Protocol: p.Name(),
		Procs:    p.Procs(),
		Seed:     opts.Seed,
		Episodes: opts.Episodes,
		Template: opts.Template.String(),
		SLO:      opts.SLO,
	}
	for e := 0; e < opts.Episodes; e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ep, transport, err := runEpisode(ctx, opts, p, legit, e)
		if err != nil {
			return nil, fmt.Errorf("chaos: episode %d: %w", e, err)
		}
		rep.Transport = transport
		rep.EpisodeResults = append(rep.EpisodeResults, *ep)
	}
	rep.aggregate()
	return rep, nil
}

// runEpisode generates, runs, and judges one episode.
func runEpisode(ctx context.Context, opts Options, p *sim.Protocol, legit sim.Config, e int) (*Episode, string, error) {
	seed := episodeSeed(opts.Seed, e)
	sched := opts.Template.instantiate(p, schedRNG(seed))
	var tr cluster.Transport
	if opts.NewTransport != nil {
		var err error
		if tr, err = opts.NewTransport(p.Procs()); err != nil {
			return nil, "", err
		}
		defer tr.Close()
	}
	var st *store.Store
	if opts.Persist {
		var fs store.FS = store.NewMemFS()
		if opts.StorageFaultEvery > 0 {
			kinds := opts.StorageFaultKinds
			if len(kinds) == 0 {
				kinds = []store.FaultKind{store.FaultTorn, store.FaultBitFlip, store.FaultStale, store.FaultMissing}
			}
			fs = store.NewInjector(fs, seed, store.Plan{Every: opts.StorageFaultEvery, Kinds: kinds})
		}
		st = store.New(fs)
	}
	res, err := cluster.Run(ctx, cluster.Options{
		Proto:          p,
		Transport:      tr,
		Seed:           seed,
		MaxSteps:       opts.MaxSteps,
		Schedule:       sched,
		RecordMoves:    true, // exact max-token and livelock evidence
		RefreshEvery:   opts.RefreshEvery,
		StopWhenStable: true,
		Store:          st,
		PersistEvery:   opts.PersistEvery,
	}, legit)
	if err != nil {
		return nil, "", err
	}
	ep := judge(e, seed, sched, res, opts.SLO, opts.MaxSteps)
	return ep, res.Transport, nil
}

// judge folds one cluster result into a judged episode.
func judge(index int, seed int64, sched []cluster.Fault, res *cluster.Result, slo SLO, maxSteps int) *Episode {
	parts := make([]string, len(sched))
	for i, f := range sched {
		parts[i] = f.String()
	}
	ep := &Episode{
		Index:     index,
		Seed:      seed,
		Schedule:  strings.Join(parts, ";"),
		Steps:     res.Steps,
		Moves:     res.Moves,
		Converged: res.Converged,
	}
	ep.Recoveries, ep.MaxTokens = attribute(res.Events)
	ep.Storage = res.Storage
	if !res.Converged {
		// No silent livelock: name the failure mode. Moves near the end
		// of the budget mean the ring was still churning (livelock);
		// none mean it wedged quiescent.
		lastMove := -1
		for _, ev := range res.Events {
			if ev.Kind == cluster.KindMove {
				lastMove = ev.Step
			}
		}
		mode := "wedged quiescent"
		if lastMove >= res.Steps-res.Steps/10 {
			mode = "still churning (livelock)"
		}
		ep.Violations = append(ep.Violations, fmt.Sprintf(
			"did not re-stabilize within %d steps, %s (last move at step %d)", maxSteps, mode, lastMove))
	}
	if slo.RecoverySteps > 0 {
		for _, r := range ep.Recoveries {
			if r.Steps > slo.RecoverySteps {
				ep.Violations = append(ep.Violations, fmt.Sprintf(
					"recovery after %s took %d steps, budget %d", r.Kind, r.Steps, slo.RecoverySteps))
			}
		}
	}
	if slo.MaxTokens > 0 && ep.MaxTokens > slo.MaxTokens {
		ep.Violations = append(ep.Violations, fmt.Sprintf(
			"token count reached %d, budget %d", ep.MaxTokens, slo.MaxTokens))
	}
	return ep
}

// attribute walks an episode's event stream, attributing each completed
// stabilization to the most recent disturbance — a fault, or a cut heal
// (healing is what unblocks recovery from a partition) — and tracking
// the peak token count.
func attribute(events []cluster.Event) ([]Recovery, int) {
	var out []Recovery
	lastKind := "start"
	brokenAt, maxTokens := 0, 0
	for _, ev := range events {
		if ev.Tokens > maxTokens {
			maxTokens = ev.Tokens
		}
		switch ev.Kind {
		case cluster.KindFault, cluster.KindHeal, cluster.KindCrashed:
			lastKind = faultKind(ev.Fault)
		case cluster.KindDestabilized:
			brokenAt = ev.Step
		case cluster.KindStabilized:
			out = append(out, Recovery{Kind: lastKind, BrokenAt: brokenAt, StableAt: ev.Step, Steps: ev.After})
		}
	}
	return out, maxTokens
}

// faultKind extracts the kind from a fault's schedule rendering
// ("corrupt@120:node=2,val=1" → "corrupt").
func faultKind(s string) string {
	if i := strings.IndexByte(s, '@'); i > 0 {
		return s[:i]
	}
	return s
}
