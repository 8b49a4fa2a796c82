package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/sim"
)

// resume is a pending un-stall for the free-running engine.
type resume struct {
	step int
	node int
}

// freeTickInterval is the idle heartbeat of the free-running collector.
// The engine's clock advances on every executed move AND on every tick,
// so scheduled faults fire, stalls resume, and partitions heal even
// while the ring is quiescent — a partitioned ring makes no moves, and
// without the heartbeat its heal step would never arrive.
const freeTickInterval = time.Millisecond

// runFree is the concurrent engine: nodes drive themselves, the
// collector goroutine (this function) folds their move reports into
// the Monitor, applies due faults, and decides when the episode ends.
// "Step" here is the collector's clock: the count of executed moves
// plus idle heartbeats — the only cluster-wide clock a free-running
// system has.
func runFree(ctx context.Context, opts Options, inj *injector, initial sim.Config) (*Result, error) {
	proto := opts.Proto
	procs := proto.Procs()
	rng := rand.New(rand.NewSource(opts.Seed))

	runCtx, cancel := context.WithCancel(ctx)
	reports := make(chan moveReport, 256)
	nodes := make([]*node, procs)
	for i := range nodes {
		nodes[i] = newNode(i, proto, inj, nodeSeed(opts.Seed, i), initial[i])
		nodes[i].reports = reports
	}
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.freeLoop(runCtx)
		}(n)
	}
	stop := func() {
		cancel()
		wg.Wait()
	}

	// tell sends a command without waiting for a reply; node command
	// buffers absorb it even when the node is mid-report.
	tell := func(i int, c command) {
		select {
		case nodes[i].cmds <- c:
		case <-runCtx.Done():
		}
	}

	mon := newMonitor(proto, initial, opts.RecordMoves)
	sup := newSupervisor(proto, opts.Store, rng, mon)
	persistEvery := persistInterval(opts)
	pending := sortedSchedule(opts.Schedule)
	var resumes []resume
	var heals []heal
	movesPerNode := make([]int, procs)
	clock, moves := 0, 0

	ticker := time.NewTicker(freeTickInterval)
	defer ticker.Stop()

	// advanceClock runs the per-step bookkeeping shared by the move and
	// heartbeat paths: due faults, heals, resumes, anti-entropy,
	// snapshots, and the stop decision.
	advanceClock := func() (done bool) {
		for len(pending) > 0 && pending[0].Step <= clock {
			f := pending[0]
			pending = pending[1:]
			switch f.Kind {
			case FaultCorrupt:
				if f.Val < 0 {
					f.Val = rng.Intn(proto.Domain(f.Node))
				}
				tell(f.Node, command{kind: cmdCorrupt, val: f.Val})
			case FaultRestart:
				tell(f.Node, command{kind: cmdRestart})
			case FaultCrash:
				tell(f.Node, command{kind: cmdCrash})
				sup.crash(clock, f)
				continue
			case FaultStall:
				tell(f.Node, command{kind: cmdStall})
				resumes = append(resumes, resume{step: clock + f.Count, node: f.Node})
			case FaultPartition, FaultIsolate:
				inj.arm(f)
				heals = append(heals, heal{at: clock + f.Count, f: f})
			default: // drop | dup | delay
				inj.arm(f)
			}
			mon.ObserveFault(clock, f)
		}
		healed := false
		keepHeals := heals[:0]
		for _, h := range heals {
			if h.at <= clock {
				mon.ObserveHeal(clock, h.f)
				healed = true
			} else {
				keepHeals = append(keepHeals, h)
			}
		}
		heals = keepHeals
		keep := resumes[:0]
		for _, rs := range resumes {
			if rs.step <= clock {
				tell(rs.node, command{kind: cmdResume})
			} else {
				keep = append(keep, rs)
			}
		}
		resumes = keep
		for _, nd := range sup.due(clock) {
			val, from := sup.restart(nd)
			tell(nd, command{kind: cmdRestore, val: val})
			mon.ObserveRecovered(clock, nd, val, from)
		}
		if healed || (opts.RefreshEvery > 0 && clock%opts.RefreshEvery == 0) {
			for i := range nodes {
				tell(i, command{kind: cmdRefresh})
			}
		}
		if opts.Store != nil && clock%persistEvery == 0 {
			for i := 0; i < procs; i++ {
				if !sup.down(i) {
					_ = opts.Store.Save(i, uint64(clock), mon.view[i])
				}
			}
		}
		if opts.SnapshotEvery > 0 && clock%opts.SnapshotEvery == 0 {
			mon.Snapshot(clock)
		}
		return clock >= opts.MaxSteps ||
			(opts.StopWhenStable && mon.Legitimate() &&
				len(pending) == 0 && len(resumes) == 0 && len(heals) == 0)
	}

	for {
		select {
		case <-ctx.Done():
			stop()
			return nil, ctx.Err()
		case r := <-reports:
			clock++
			moves++
			inj.advance(clock)
			movesPerNode[r.Node]++
			mon.ObserveMove(clock, r.Node, r.Rule, r.Val)
		case <-ticker.C:
			clock++
			inj.advance(clock)
		}
		if advanceClock() {
			stop()
			mon.Finish(clock)
			return assemble(opts, inj, mon, clock, moves, movesPerNode), nil
		}
	}
}
