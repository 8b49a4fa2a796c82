package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/ring"
)

// The gas-metered checker variants must (a) agree with the unmetered ones
// when the meter never trips, and (b) abandon the check with the meter's
// error when it does — this is the cancellation contract checkd relies on.

func TestGasVariantsAgreeWithPlain(t *testing.T) {
	b := ring.NewBTR(3)
	three := ring.NewThreeState(3)
	ab, err := three.Abstraction(b)
	if err != nil {
		t.Fatal(err)
	}
	d3, btr := three.Dijkstra3(), b.System()
	g := mc.NewGas(context.Background(), -1)

	rep, err := core.StabilizingGas(g, d3, btr, ab)
	if err != nil {
		t.Fatal(err)
	}
	plain := core.Stabilizing(d3, btr, ab)
	if rep.Holds != plain.Holds || rep.Reason != plain.Reason {
		t.Fatalf("metered stabilization diverged:\n%v\nvs\n%v", rep.Verdict, plain.Verdict)
	}

	conv, err := core.ConvergenceRefinementGas(g, d3, btr, ab)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Holds != core.ConvergenceRefinement(d3, btr, ab).Holds {
		t.Fatal("metered convergence refinement diverged")
	}

	vInit, err := core.RefinementInitGas(g, d3, btr, ab)
	if err != nil {
		t.Fatal(err)
	}
	if vInit.Holds != core.RefinementInit(d3, btr, ab).Holds {
		t.Fatal("metered [⊑]_init diverged")
	}

	vEvery, err := core.EverywhereRefinementGas(g, d3, btr, ab)
	if err != nil {
		t.Fatal(err)
	}
	if vEvery.Holds != core.EverywhereRefinement(d3, btr, ab).Holds {
		t.Fatal("metered [⊑] diverged")
	}

	if g.Spent() == 0 {
		t.Fatal("meter recorded no work")
	}
}

func TestGasCancelsStabilization(t *testing.T) {
	d3 := ring.NewThreeState(5).Dijkstra3()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.SelfStabilizingGas(mc.NewGas(ctx, -1), d3); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestGasBudgetBoundsChecks(t *testing.T) {
	d3 := ring.NewThreeState(5).Dijkstra3()
	if _, err := core.SelfStabilizingGas(mc.NewGas(nil, 10), d3); !errors.Is(err, mc.ErrBudgetExhausted) {
		t.Fatalf("stabilization: want ErrBudgetExhausted, got %v", err)
	}
	b := ring.NewBTR(3)
	four := ring.NewFourState(3)
	ab, err := four.Abstraction(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ConvergenceRefinementGas(mc.NewGas(nil, 10), four.C1(), b.System(), ab); !errors.Is(err, mc.ErrBudgetExhausted) {
		t.Fatalf("convergence: want ErrBudgetExhausted, got %v", err)
	}
}
