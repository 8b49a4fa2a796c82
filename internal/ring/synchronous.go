package ring

import (
	"fmt"

	"repro/internal/system"
)

// synchronous compiles ring source under the synchronous daemon: in one
// step, EVERY process with an enabled action fires simultaneously
// (processes with several enabled actions contribute one transition per
// choice combination). Dijkstra's token rings are famously sensitive to
// this daemon — the classical two-process ping-pong oscillations — which
// the checker exhibits; see the synchronous tests.
//
// The process of an action is the one variable it writes. All reads are
// of the pre-state, and distinct processes write distinct variables, so
// a step from s that takes the edges s → t_p, one per enabled process p,
// ends in s + Σ_p (t_p − s).
func synchronous(name, src string) *system.System {
	prog, ls := compileLabeled(name, src)
	base := ls.Base()
	sp := base.Space()
	proc := make([]int, len(prog.Actions))
	for ai, a := range prog.Actions {
		if len(a.Assigns) != 1 {
			panic(fmt.Sprintf("ring: %s: action %q writes %d variables, a process one", name, a.Name, len(a.Assigns)))
		}
		proc[ai], _ = sp.VarIndex(a.Assigns[0].Name)
	}
	b := system.NewSpaceBuilder(name, sp)
	deltas := make([][]int, sp.NumVars()) // per process, its moves' offsets from s
	for s := 0; s < base.NumStates(); s++ {
		if base.IsInit(s) {
			b.AddInit(s)
		}
		for p := range deltas {
			deltas[p] = deltas[p][:0]
		}
		for _, e := range ls.Edges(s) {
			deltas[proc[e.Action]] = append(deltas[proc[e.Action]], e.To-s)
		}
		next, fired := []int{s}, false
		for _, ds := range deltas {
			if len(ds) == 0 {
				continue
			}
			fired = true
			grown := make([]int, 0, len(next)*len(ds))
			for _, t := range next {
				for _, d := range ds {
					grown = append(grown, t+d)
				}
			}
			next = grown
		}
		if fired {
			for _, t := range next {
				b.AddTransition(s, t)
			}
		}
	}
	return b.Build()
}

// Dijkstra3Synchronous is Dijkstra's 3-state system under the synchronous
// daemon, with the unique-token states initial.
func (t *ThreeState) Dijkstra3Synchronous() *system.System {
	return synchronous(fmt.Sprintf("Dijkstra3-sync(N=%d)", t.N), dijkstra3GCL(t.N, t.unique))
}

// KStateSynchronous is Dijkstra's K-state system under the synchronous
// daemon, with the unique-token states initial.
func (ks *KState) KStateSynchronous() *system.System {
	return synchronous(fmt.Sprintf("KState-sync(N=%d,K=%d)", ks.N, ks.K), kStateGCL(ks.N, ks.K, ks.unique))
}
