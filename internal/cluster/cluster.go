// Package cluster is the message-passing runtime: it executes any
// sim.Protocol as one actor goroutine per process, communicating only
// via neighbor-state messages over a pluggable Transport — no shared
// configuration, no central lock. Where internal/sim's Runner and
// LiveRing exercise the protocols under shared-memory daemons, cluster
// is the paper's fault model made operational: a FaultInjector applies
// seeded schedules of transient register corruption, message
// drop/duplicate/delay, node stall/restart, and link cuts
// (partition/isolate with timed heal), while an online
// Monitor detects legitimacy via global snapshots and emits structured
// convergence events (fault applied at step s, re-stabilized after k
// steps, tokens-over-time).
//
// Two execution engines share the same node actor:
//
//   - the stepped engine (in-proc ChanTransport): a seeded scheduler
//     activates one node at a time, so a run is a pure function of
//     (protocol, initial config, seed, schedule) — reproducible
//     byte-for-byte, which the golden tests pin;
//   - the free-running engine (TCPTransport): nodes drive themselves
//     concurrently over real sockets, with the Monitor observing the
//     move stream online. Runs converge but are not reproducible;
//     free-running episodes should execute under a context deadline.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/cluster/store"
	"repro/internal/sim"
)

// persistInterval resolves the snapshot interval: every step unless the
// options say otherwise.
func persistInterval(opts Options) int {
	if opts.PersistEvery > 0 {
		return opts.PersistEvery
	}
	return 1
}

// Options configures one cluster episode.
type Options struct {
	// Proto is the ring protocol to execute (required).
	Proto *sim.Protocol
	// Transport connects the nodes; nil means a fresh in-proc
	// ChanTransport (owned and closed by Run).
	Transport Transport
	// Seed drives the stepped scheduler, the per-node move choices,
	// and random corruption values.
	Seed int64
	// MaxSteps bounds the episode: scheduler activations under the
	// stepped engine, collector clock ticks (moves plus idle heartbeats)
	// under the free-running engine (required, > 0).
	MaxSteps int
	// Schedule is the fault schedule (see ParseSchedule), applied at
	// the step each fault names.
	Schedule []Fault
	// SnapshotEvery emits a periodic tokens-over-time snapshot event
	// every so many steps (0 = none).
	SnapshotEvery int
	// RecordMoves adds one event per executed move to the stream.
	RecordMoves bool
	// RefreshEvery triggers a periodic anti-entropy round every so many
	// steps (0 = none): each node re-announces its register and probes
	// its neighbors, repairing views staled by lost messages. Partition
	// heals always trigger one round regardless of this setting.
	RefreshEvery int
	// StopWhenStable ends the episode once the Monitor's view is
	// legitimate, no scheduled faults remain, and no partition is still
	// open, instead of running the full budget. A crashed node keeps the
	// view illegitimate, so the episode always runs through recovery.
	StopWhenStable bool
	// Store, when non-nil, persists each live node's register as a
	// checksummed snapshot every PersistEvery steps (generation = step).
	// Crash faults recover from it: a validating snapshot restores the
	// register, a failed validation resumes from arbitrary state.
	Store *store.Store
	// PersistEvery is the snapshot interval in steps; ≤ 0 means every
	// step when Store is set.
	PersistEvery int
}

// Result summarizes one cluster episode.
type Result struct {
	// Protocol and Transport identify the run.
	Protocol  string `json:"protocol"`
	Transport string `json:"transport"`
	Procs     int    `json:"procs"`
	Seed      int64  `json:"seed"`
	// Steps is the number of scheduler steps consumed (stepped) or
	// collector clock ticks elapsed (free-running).
	Steps int `json:"steps"`
	// Moves is the total number of protocol moves executed.
	Moves int `json:"moves"`
	// Converged reports whether the Monitor's view was legitimate when
	// the episode ended.
	Converged bool `json:"converged"`
	// Final is the Monitor's view at stop time.
	Final []int `json:"final"`
	// Stabilizations are the completed convergence episodes: perturbed
	// start to first legitimacy, and each fault to re-stabilization.
	Stabilizations []Stabilization `json:"stabilizations,omitempty"`
	// MovesPerNode counts executed moves per process.
	MovesPerNode []int `json:"moves_per_node"`
	// Links reports per-link message statistics, including fault-layer
	// drops, duplicates, and delays.
	Links []LinkStats `json:"links,omitempty"`
	// Events is the Monitor's structured convergence event stream.
	Events []Event `json:"events"`
	// Storage reports the snapshot store's counters when persistence was
	// on: saves, validated restores, and what validation caught.
	Storage *store.Stats `json:"storage,omitempty"`
}

// nodeSeed derives a per-node RNG seed so move choices are independent
// of the scheduler's stream.
func nodeSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// Run executes one cluster episode from the initial configuration.
// With a stepped transport (in-proc channels) the run is deterministic
// for a fixed seed; otherwise nodes free-run and the context's
// deadline bounds the wall clock.
func Run(ctx context.Context, opts Options, initial sim.Config) (*Result, error) {
	if opts.Proto == nil {
		return nil, fmt.Errorf("cluster: Options.Proto is required")
	}
	if opts.MaxSteps <= 0 {
		return nil, fmt.Errorf("cluster: MaxSteps must be positive, got %d", opts.MaxSteps)
	}
	if err := sim.Validate(opts.Proto, initial); err != nil {
		return nil, err
	}
	if err := ValidateSchedule(opts.Proto, opts.Schedule); err != nil {
		return nil, err
	}
	procs := opts.Proto.Procs()
	tr := opts.Transport
	owned := false
	if tr == nil {
		tr = NewChanTransport(procs)
		owned = true
	}
	if tr.Procs() != procs {
		return nil, fmt.Errorf("cluster: transport connects %d nodes, protocol %q has %d",
			tr.Procs(), opts.Proto.Name(), procs)
	}
	if owned {
		defer tr.Close()
	}
	inj := newInjector(tr)
	if _, ok := tr.(stepped); ok {
		return runStepped(ctx, opts, inj, initial)
	}
	return runFree(ctx, opts, inj, initial)
}

// heal is a pending partition/isolation expiry: at step `at` the cut is
// gone and the engine emits the heal event plus an anti-entropy round.
type heal struct {
	at int
	f  Fault
}

// sortedSchedule clones and sorts the schedule by step, preserving
// entry order within a step.
func sortedSchedule(schedule []Fault) []Fault {
	out := append([]Fault(nil), schedule...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// runStepped is the deterministic engine: a seeded scheduler activates
// one node per step; every channel interaction is serialized through
// the engine goroutine, so the run replays exactly.
func runStepped(ctx context.Context, opts Options, inj *injector, initial sim.Config) (*Result, error) {
	proto := opts.Proto
	procs := proto.Procs()
	rng := rand.New(rand.NewSource(opts.Seed))

	nodes := make([]*node, procs)
	for i := range nodes {
		nodes[i] = newNode(i, proto, inj, nodeSeed(opts.Seed, i), initial[i])
	}
	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.steppedLoop(runCtx)
		}(n)
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	// ask serializes one command round-trip with a node actor. The
	// not-ok return covers parent-context cancellation, where the actor
	// may exit without replying.
	ask := func(n *node, c command) (stepReport, bool) {
		c.reply = make(chan stepReport, 1)
		select {
		case n.cmds <- c:
		case <-runCtx.Done():
			return stepReport{}, false
		}
		select {
		case rep := <-c.reply:
			return rep, true
		case <-runCtx.Done():
			return stepReport{}, false
		}
	}
	// Initial announcements, node by node, so even message arrival
	// order is deterministic.
	for _, n := range nodes {
		if _, ok := ask(n, command{kind: cmdInit}); !ok {
			return nil, ctx.Err()
		}
	}

	mon := newMonitor(proto, initial, opts.RecordMoves)
	sup := newSupervisor(proto, opts.Store, rng, mon)
	persistEvery := persistInterval(opts)
	pending := sortedSchedule(opts.Schedule)
	var heals []heal
	stalledUntil := make([]int, procs)
	movesPerNode := make([]int, procs)
	moves, lastStep := 0, 0

	// refresh runs one anti-entropy round, node by node so message
	// arrival order stays deterministic.
	refresh := func() bool {
		for _, n := range nodes {
			if _, ok := ask(n, command{kind: cmdRefresh}); !ok {
				return false
			}
		}
		return true
	}

	for step := 1; step <= opts.MaxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lastStep = step
		inj.advance(step)
		for len(pending) > 0 && pending[0].Step <= step {
			f := pending[0]
			pending = pending[1:]
			switch f.Kind {
			case FaultCorrupt:
				if f.Val < 0 {
					f.Val = rng.Intn(proto.Domain(f.Node))
				}
				if _, ok := ask(nodes[f.Node], command{kind: cmdCorrupt, val: f.Val}); !ok {
					return nil, ctx.Err()
				}
			case FaultRestart:
				if _, ok := ask(nodes[f.Node], command{kind: cmdRestart}); !ok {
					return nil, ctx.Err()
				}
			case FaultCrash:
				if _, ok := ask(nodes[f.Node], command{kind: cmdCrash}); !ok {
					return nil, ctx.Err()
				}
				sup.crash(step, f)
				continue
			case FaultStall:
				stalledUntil[f.Node] = step + f.Count
			case FaultPartition, FaultIsolate:
				inj.arm(f)
				heals = append(heals, heal{at: step + f.Count, f: f})
			default: // drop | dup | delay
				inj.arm(f)
			}
			mon.ObserveFault(step, f)
		}
		healed := false
		keep := heals[:0]
		for _, h := range heals {
			if h.at <= step {
				mon.ObserveHeal(step, h.f)
				healed = true
			} else {
				keep = append(keep, h)
			}
		}
		heals = keep
		if healed || (opts.RefreshEvery > 0 && step%opts.RefreshEvery == 0) {
			if !refresh() {
				return nil, ctx.Err()
			}
		}
		for _, nd := range sup.due(step) {
			val, from := sup.restart(nd)
			if _, ok := ask(nodes[nd], command{kind: cmdRestore, val: val}); !ok {
				return nil, ctx.Err()
			}
			mon.ObserveRecovered(step, nd, val, from)
		}
		var runnable []int
		for i := range nodes {
			if stalledUntil[i] <= step && !sup.down(i) {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) > 0 {
			pick := runnable[rng.Intn(len(runnable))]
			rep, ok := ask(nodes[pick], command{kind: cmdStep})
			if !ok {
				return nil, ctx.Err()
			}
			if rep.Moved {
				moves++
				movesPerNode[pick]++
				mon.ObserveMove(step, pick, rep.Rule, rep.Val)
			}
		}
		if opts.Store != nil && step%persistEvery == 0 {
			for i := 0; i < procs; i++ {
				if !sup.down(i) {
					_ = opts.Store.Save(i, uint64(step), mon.view[i])
				}
			}
		}
		if opts.SnapshotEvery > 0 && step%opts.SnapshotEvery == 0 {
			mon.Snapshot(step)
		}
		if opts.StopWhenStable && mon.Legitimate() && len(pending) == 0 && len(heals) == 0 {
			break
		}
	}
	mon.Finish(lastStep)
	return assemble(opts, inj, mon, lastStep, moves, movesPerNode), nil
}

func assemble(opts Options, inj *injector, mon *Monitor, steps, moves int, movesPerNode []int) *Result {
	var storage *store.Stats
	if opts.Store != nil {
		st := opts.Store.Stats()
		storage = &st
	}
	return &Result{
		Protocol:       opts.Proto.Name(),
		Transport:      inj.Name(),
		Procs:          opts.Proto.Procs(),
		Seed:           opts.Seed,
		Steps:          steps,
		Moves:          moves,
		Converged:      mon.Legitimate(),
		Final:          mon.View(),
		Stabilizations: mon.Stabilizations(),
		MovesPerNode:   movesPerNode,
		Links:          inj.linkStats(),
		Events:         mon.Events(),
		Storage:        storage,
	}
}
