package repro_test

import (
	"fmt"
	"testing"

	"repro"
)

// ExampleStabilizing demonstrates the headline check: Dijkstra's 3-state
// token ring is stabilizing to the abstract bidirectional ring through
// the Section 5 mapping.
func ExampleStabilizing() {
	btr := repro.NewBTR(2)
	three := repro.NewThreeState(2)
	alpha, err := three.Abstraction(btr)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep := repro.Stabilizing(three.Dijkstra3(), btr.System(), alpha)
	fmt.Println(rep.Holds)
	// Output: true
}

// ExampleConvergenceRefinement demonstrates Lemma 7: the concrete 4-state
// system C1 is a convergence refinement of BTR, with compressions.
func ExampleConvergenceRefinement() {
	btr := repro.NewBTR(2)
	four := repro.NewFourState(2)
	alpha, err := four.Abstraction(btr)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep := repro.ConvergenceRefinement(four.C1(), btr.System(), alpha)
	fmt.Println(rep.Holds, len(rep.Compressions) > 0)
	// Output: true true
}

// ExampleCompileGCL compiles a guarded-command program into an automaton
// and checks self-stabilization.
func ExampleCompileGCL() {
	c, err := repro.CompileGCL("counter", `
var x : 0..2;
init x == 0;
action spin: true -> x := (x + 1) % 3;
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(c.System.NumStates(), repro.SelfStabilizing(c.System).Holds)
	// Output: 3 true
}

// TestFacadeSurface exercises the re-exported API end to end: compile a
// guarded-command system, then check the paper's relations on the
// built-in examples.
func TestFacadeSurface(t *testing.T) {
	flip, err := repro.CompileGCL("flip", `
var t : bool;
init !t;
action flip: t -> t := false;
action flop: !t -> t := true;
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := repro.SelfStabilizing(flip.System)
	if !rep.Holds {
		t.Fatalf("flip-flop should self-stabilize: %s", rep.Verdict)
	}

	a, c := repro.Fig1(5)
	if v := repro.RefinementInit(c, a, nil); !v.Holds {
		t.Fatalf("Fig1 init refinement: %s", v)
	}
	if v := repro.Stabilizing(c, a, nil); v.Holds {
		t.Fatal("Fig1 C must not stabilize")
	}

	ae, ce := repro.OddEvenRecovery()
	if v := repro.EverywhereEventuallyRefinement(ce, ae, nil); !v.Holds {
		t.Fatalf("odd/even ⊑ee: %s", v)
	}
}

// TestExperimentRegistry sanity-checks the public experiments hook.
func TestExperimentRegistry(t *testing.T) {
	all := repro.Experiments()
	if len(all) != 22 {
		t.Fatalf("experiments = %d, want 22", len(all))
	}
	rep := all[0].Run()
	if rep.ID != "E1" || !rep.Pass() {
		t.Fatalf("E1 = %s", rep)
	}
}

// TestSimFacade runs a protocol through the re-exported simulator types.
func TestSimFacade(t *testing.T) {
	proto, err := repro.NewProtocol("dijkstra3", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &repro.Runner{Proto: proto, Daemon: repro.NewRandomDaemon(1), MaxSteps: 10000}
	res, err := r.Run(repro.SimConfig{0, 2, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
}
