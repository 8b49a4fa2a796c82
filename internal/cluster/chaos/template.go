package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Template is a family of fault schedules. A campaign instantiates it
// once per episode with that episode's seed, so every episode faces a
// different — but reproducible — schedule drawn from the same
// distribution. The knobs are the sweep axes the campaign explores:
// fault density (Faults), kind mix (Kinds), and inter-fault gap (Gap).
type Template struct {
	// Kinds is the fault-kind mix; each scheduled fault picks its kind
	// uniformly (seeded) from this list.
	Kinds []cluster.FaultKind `json:"kinds"`
	// Faults is the number of faults per episode (the density axis).
	Faults int `json:"faults"`
	// Gap is the number of steps between consecutive faults (the
	// pressure axis: small gaps mean faults land on a still-recovering
	// ring).
	Gap int `json:"gap"`
	// Start is the step of the first fault; the ring runs undisturbed
	// until then.
	Start int `json:"start"`
	// CutDuration is how many steps a partition or isolation lasts
	// before healing (required when Kinds includes those).
	CutDuration int `json:"cut_duration,omitempty"`
	// SlowDelayMS is the per-operation latency a slow-peer fleet fault
	// injects (default 200ms; fleet campaigns only).
	SlowDelayMS int64 `json:"slow_delay_ms,omitempty"`
}

// String renders the template compactly for reports.
func (t Template) String() string {
	kinds := make([]string, len(t.Kinds))
	for i, k := range t.Kinds {
		kinds[i] = string(k)
	}
	s := fmt.Sprintf("faults=%d,gap=%d,start=%d,kinds=%s", t.Faults, t.Gap, t.Start, strings.Join(kinds, "+"))
	if t.CutDuration > 0 {
		s += fmt.Sprintf(",cutdur=%d", t.CutDuration)
	}
	return s
}

// hasCuts reports whether the kind mix includes partition or isolate.
func (t Template) hasCuts() bool {
	for _, k := range t.Kinds {
		if k == cluster.FaultPartition || k == cluster.FaultIsolate {
			return true
		}
	}
	return false
}

// Validate checks the template: known kinds, positive
// density/gap/start, a cut duration when the mix includes partition or
// isolate. Run calls it; services can call it up front to classify
// template mistakes as client errors.
func (t Template) Validate() error {
	if len(t.Kinds) == 0 {
		return fmt.Errorf("chaos: template needs at least one fault kind")
	}
	known := map[cluster.FaultKind]bool{
		cluster.FaultCorrupt: true, cluster.FaultDrop: true, cluster.FaultDup: true,
		cluster.FaultDelay: true, cluster.FaultStall: true, cluster.FaultRestart: true,
		cluster.FaultCrash: true, cluster.FaultPartition: true, cluster.FaultIsolate: true,
	}
	for _, k := range t.Kinds {
		if !known[k] {
			return fmt.Errorf("chaos: unknown fault kind %q", k)
		}
	}
	if t.Faults < 1 {
		return fmt.Errorf("chaos: template needs faults ≥ 1, got %d", t.Faults)
	}
	if t.Gap < 1 {
		return fmt.Errorf("chaos: template needs gap ≥ 1, got %d", t.Gap)
	}
	if t.Start < 1 {
		return fmt.Errorf("chaos: template needs start ≥ 1, got %d", t.Start)
	}
	if t.hasCuts() && t.CutDuration < 1 {
		return fmt.Errorf("chaos: kind mix includes cuts but cut duration is %d", t.CutDuration)
	}
	return nil
}

// instantiate draws one concrete schedule from the template. Fault i
// fires at Start + i*Gap with a seeded-random kind from the mix and
// seeded-random targets: a node for corrupt/stall/restart/isolate, a
// ring-neighbor link for drop/dup/delay, a contiguous two-arc cut for
// partition. The result always passes cluster.ValidateSchedule.
func (t Template) instantiate(p *sim.Protocol, rng *rand.Rand) []cluster.Fault {
	procs := p.Procs()
	sched := make([]cluster.Fault, 0, t.Faults)
	for i := 0; i < t.Faults; i++ {
		f := cluster.Fault{
			Kind: t.Kinds[rng.Intn(len(t.Kinds))],
			Step: t.Start + i*t.Gap,
			Node: -1, Val: -1, From: -1, To: -1, Count: 1,
		}
		switch f.Kind {
		case cluster.FaultCorrupt:
			f.Node = rng.Intn(procs) // Val stays -1: the engine seeds the value
		case cluster.FaultRestart:
			f.Node = rng.Intn(procs)
		case cluster.FaultCrash:
			f.Node = rng.Intn(procs)
		case cluster.FaultStall:
			f.Node = rng.Intn(procs)
			f.Count = t.Gap
		case cluster.FaultDrop, cluster.FaultDup:
			f.From, f.To = neighborLink(procs, rng)
			f.Count = 1 + rng.Intn(3)
		case cluster.FaultDelay:
			f.From, f.To = neighborLink(procs, rng)
			f.Count = t.Gap
		case cluster.FaultIsolate:
			f.Node = rng.Intn(procs)
			f.Count = t.CutDuration
		case cluster.FaultPartition:
			f.A, f.B = ringCut(procs, rng)
			f.Count = t.CutDuration
		}
		sched = append(sched, f)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Step < sched[j].Step })
	return sched
}

// neighborLink picks a seeded-random directed ring link (i to i±1).
func neighborLink(procs int, rng *rand.Rand) (from, to int) {
	from = rng.Intn(procs)
	if rng.Intn(2) == 0 {
		return from, (from + 1) % procs
	}
	return from, (from - 1 + procs) % procs
}

// ringCut splits the ring into two contiguous arcs at a seeded-random
// boundary: A = [0,k), B = [k,procs).
func ringCut(procs int, rng *rand.Rand) (a, b []int) {
	k := 1 + rng.Intn(procs-1)
	for i := 0; i < procs; i++ {
		if i < k {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	return a, b
}
