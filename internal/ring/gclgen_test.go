package ring

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gcl"
	"repro/internal/system"
)

// TestDijkstra3GCLMatchesProgrammatic cross-validates the GCL text
// pipeline (lexer → parser → checker → enumerator) against the ring
// builder, and pins the builder to the digest recorded from the
// hand-written closure definition it replaced. Transition relations must
// agree exactly.
func TestDijkstra3GCLMatchesProgrammatic(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		src := Dijkstra3GCL(n)
		compiled, err := gcl.Compile(fmt.Sprintf("d3-gcl-N%d", n), src)
		if err != nil {
			t.Fatalf("N=%d: %v\n%s", n, err, src)
		}
		model := NewThreeState(n).Dijkstra3()
		if got, want := digestSystem(model), pinnedAutomata[fmt.Sprintf("Dijkstra3/N=%d", n)]; got != want {
			t.Fatalf("N=%d: Dijkstra3 digest %s, recorded from the programmatic system %s", n, got, want)
		}
		if !system.TransitionsEqual(compiled.System, model) {
			d1 := system.DiffTransitions(compiled.System, model, 3)
			d2 := system.DiffTransitions(model, compiled.System, 3)
			t.Fatalf("N=%d: GCL vs programmatic differ: gcl-only %v, model-only %v", n, d1, d2)
		}
		// And the compiled text is self-stabilizing.
		if rep := core.SelfStabilizing(compiled.System); !rep.Holds {
			t.Fatalf("N=%d: %s", n, rep.Verdict)
		}
	}
}

func TestKStateGCLMatchesProgrammatic(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 3}, {3, 3}, {3, 4}} {
		src := KStateGCL(tc.n, tc.k)
		compiled, err := gcl.Compile(fmt.Sprintf("k-gcl-N%dK%d", tc.n, tc.k), src)
		if err != nil {
			t.Fatalf("N=%d K=%d: %v\n%s", tc.n, tc.k, err, src)
		}
		model := NewKState(tc.n, tc.k).System()
		if got, want := digestSystem(model), pinnedAutomata[fmt.Sprintf("KState/N=%d,K=%d", tc.n, tc.k)]; got != want {
			t.Fatalf("N=%d K=%d: KState digest %s, recorded from the programmatic system %s", tc.n, tc.k, got, want)
		}
		if !system.TransitionsEqual(compiled.System, model) {
			t.Fatalf("N=%d K=%d: GCL vs programmatic differ", tc.n, tc.k)
		}
	}
}

// TestAggressiveThreeGCLEqualsDijkstra3 transliterates the final
// Section 6 listing (with its if-then-else cascades as ternaries) and
// checks — through the full text pipeline — the paper's closing claim:
// the system "can be rewritten as Dijkstra's 3-state system".
func TestAggressiveThreeGCLEqualsDijkstra3(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		src := AggressiveThreeGCL(n)
		compiled, err := gcl.Compile(fmt.Sprintf("agg-N%d", n), src)
		if err != nil {
			t.Fatalf("N=%d: %v\n%s", n, err, src)
		}
		d3 := NewThreeState(n).Dijkstra3()
		if !system.TransitionsEqual(compiled.System, d3) {
			d1 := system.DiffTransitions(compiled.System, d3, 3)
			d2 := system.DiffTransitions(d3, compiled.System, 3)
			t.Fatalf("N=%d: aggressive GCL vs Dijkstra3 differ: gcl-only %v, d3-only %v\n%s",
				n, d1, d2, src)
		}
	}
}

// TestNewThreeGCLLocalPriority model-checks the new 3-state system the
// simulator runs: W2′'s priority is written into each middle process's
// guards, so it preempts only that process. With τ steps stripped, as
// the simulator never reports them, and the unique-token states initial,
// it is stabilizing to BTR. It is not ThreeState.NewThree, whose global
// priority lets an enabled W2′ anywhere block every other process: from
// N = 3 on, the local system has the extra transitions of processes that
// keep passing while a W2′ elsewhere is enabled.
func TestNewThreeGCLLocalPriority(t *testing.T) {
	for n := 2; n <= 5; n++ {
		b, f := NewBTR(n), NewThreeState(n)
		ab, err := f.Abstraction(b)
		if err != nil {
			t.Fatal(err)
		}
		global := f.NewThree()
		local := compile(fmt.Sprintf("NewThreeGCL(N=%d)", n), NewThreeGCL(n)).StripSelfLoops().WithInit(global.InitStates())
		if rep := core.Stabilizing(local, b.System(), ab); !rep.Holds {
			t.Fatalf("N=%d: local-priority new 3-state system: %s", n, rep.Verdict)
		}
		if extra := system.DiffTransitions(global, local, 1); len(extra) > 0 {
			t.Fatalf("N=%d: global NewThree has transition %v the local system lacks", n, extra)
		}
		if differs := !system.TransitionsEqual(local, global); differs != (n >= 3) {
			t.Fatalf("N=%d: local differs from global NewThree = %v, want %v (local-only %v)",
				n, differs, n >= 3, system.DiffTransitions(local, global, 3))
		}
	}
}

func TestGCLGenValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { Dijkstra3GCL(1) },
		func() { KStateGCL(1, 3) },
		func() { KStateGCL(3, 1) },
		func() { AggressiveThreeGCL(1) },
		func() { Dijkstra4GCL(1) },
		func() { NewThreeGCL(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestGCLInitIsLegitimate: the canonical all-zero initial configuration
// emitted by the generator is inside the legitimate region the checker
// computes.
func TestGCLInitIsLegitimate(t *testing.T) {
	compiled, err := gcl.Compile("d3", Dijkstra3GCL(3))
	if err != nil {
		t.Fatal(err)
	}
	rep := core.SelfStabilizing(compiled.System)
	if !rep.Holds {
		t.Fatal(rep.Verdict)
	}
	legit := make(map[int]bool, len(rep.Legitimate))
	for _, s := range rep.Legitimate {
		legit[s] = true
	}
	for _, s := range compiled.System.InitStates() {
		if !legit[s] {
			t.Fatalf("initial state %s outside legitimate region", compiled.System.StateString(s))
		}
	}
}
