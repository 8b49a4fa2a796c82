package fleet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
)

// Campaign execution: the chaos engine's seeded fleet-fault schedules
// (chaos.Template.FleetSchedule) applied to a live fleet. Where the
// simulated campaigns corrupt registers inside a stepped model, a
// fleet campaign closes real listeners and severs real connections —
// and the recovery it measures is the control plane's: heartbeats
// suspecting the dead, rings shrinking to the live set, and both
// re-converging after the faults clear.

// CampaignResult summarizes one fleet campaign run.
type CampaignResult struct {
	// Ticks is how many campaign ticks ran.
	Ticks int `json:"ticks"`
	// Faults counts the schedule entries applied, by kind.
	Faults map[string]int `json:"faults"`
	// Converged reports whether every live replica's ring re-converged
	// to the live member set after the final heal.
	Converged bool `json:"converged"`
	// ConvergeTicksMax bounds how long the run waited for final
	// convergence (in heartbeat intervals).
	ConvergeMS int64 `json:"converge_ms"`
}

// RunCampaign executes a fleet-fault schedule against the fleet, one
// tick per `tick` of wall-clock: crashes restart and cuts heal Count
// ticks after they land, and after the last fault clears the run
// heals everything, restarts any still-crashed replica, and waits for
// the rings to re-converge. The fleet keeps serving throughout — the
// campaign only injects membership faults; it never pauses traffic.
func (f *Fleet) RunCampaign(ctx context.Context, sched []chaos.FleetFault, tick time.Duration) (*CampaignResult, error) {
	if tick <= 0 {
		tick = 2 * f.cfg.HeartbeatInterval
	}
	res := &CampaignResult{Faults: make(map[string]int)}

	type pending struct {
		step  int
		fault chaos.FleetFault
	}
	lastStep := 0
	for _, ff := range sched {
		if end := ff.Step + ff.Count; end > lastStep {
			lastStep = end
		}
	}
	var undo []pending
	next := 0
	for step := 1; step <= lastStep; step++ {
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		default:
		}
		// Clear faults whose duration expired at this tick.
		kept := undo[:0]
		for _, p := range undo {
			if p.step > step {
				kept = append(kept, p)
				continue
			}
			if err := f.clearFault(p.fault); err != nil {
				return res, err
			}
		}
		undo = kept
		// Land the faults scheduled for this tick.
		for next < len(sched) && sched[next].Step <= step {
			ff := sched[next]
			next++
			if err := f.applyFault(ff); err != nil {
				return res, err
			}
			res.Faults[string(ff.Kind)]++
			undo = append(undo, pending{step: ff.Step + ff.Count, fault: ff})
		}
		res.Ticks++
		time.Sleep(tick)
	}
	// Final cleanup: heal every cut, clear every gray fault, restart
	// every crashed replica.
	f.Heal()
	for i := range f.replicas {
		f.SlowReplica(i, 0)
		f.GarbageReplica(i, false)
		if err := f.RestartReplica(i); err != nil {
			return res, err
		}
	}
	// Convergence needs suspectAfter missed-then-seen heartbeat sweeps
	// on every replica; give it a generous multiple.
	wait := time.Duration(suspectAfter+20) * f.cfg.HeartbeatInterval * 4
	if wait < 2*time.Second {
		wait = 2 * time.Second
	}
	start := time.Now() //gcvet:detrand-ok measures real re-convergence latency for the campaign report
	res.Converged = f.AwaitConverged(wait)
	res.ConvergeMS = time.Since(start).Milliseconds() //gcvet:detrand-ok measures real re-convergence latency for the campaign report
	return res, nil
}

// applyFault lands one fleet fault.
func (f *Fleet) applyFault(ff chaos.FleetFault) error {
	switch ff.Kind {
	case cluster.FaultCrash:
		f.CrashReplica(ff.Node)
	case cluster.FaultPartition:
		f.Partition(ff.A, ff.B)
	case cluster.FaultIsolate:
		f.Partition([]int{ff.Node}, f.othersOf(ff.Node))
	case cluster.FaultSlowPeer:
		d := time.Duration(ff.DelayMS) * time.Millisecond
		if d <= 0 {
			d = 200 * time.Millisecond
		}
		f.SlowReplica(ff.Node, d)
	case cluster.FaultAsymPartition:
		f.PartitionOneWay(ff.A, ff.B)
	case cluster.FaultGarbageReply:
		f.GarbageReplica(ff.Node, true)
	default:
		return fmt.Errorf("fleet: fault kind %q is not a fleet fault", ff.Kind)
	}
	return nil
}

// clearFault undoes one fleet fault when its duration expires.
func (f *Fleet) clearFault(ff chaos.FleetFault) error {
	switch ff.Kind {
	case cluster.FaultCrash:
		return f.RestartReplica(ff.Node)
	case cluster.FaultPartition:
		f.HealCut(ff.A, ff.B)
	case cluster.FaultIsolate:
		f.HealCut([]int{ff.Node}, f.othersOf(ff.Node))
	case cluster.FaultSlowPeer:
		f.SlowReplica(ff.Node, 0)
	case cluster.FaultAsymPartition:
		// unblock is idempotent, so healing the cut both ways is safe.
		f.HealCut(ff.A, ff.B)
	case cluster.FaultGarbageReply:
		f.GarbageReplica(ff.Node, false)
	}
	return nil
}

// othersOf lists every replica index except i.
func (f *Fleet) othersOf(i int) []int {
	out := make([]int, 0, len(f.replicas)-1)
	for j := range f.replicas {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}
