package mc

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/system"
)

// chainWithLoop builds a long path 0 → 1 → … → n−1 with a back edge
// closing a cycle, large enough that metered sweeps do real work.
func chainWithLoop(n int) *system.System {
	b := system.NewBuilder("chain", n)
	b.AddInit(0)
	for s := 0; s+1 < n; s++ {
		b.AddTransition(s, s+1)
	}
	b.AddTransition(n-1, 0)
	return b.Build()
}

func TestGasNilIsUnlimited(t *testing.T) {
	var g *Gas
	for i := 0; i < 10_000; i++ {
		if err := g.Tick(100); err != nil {
			t.Fatalf("nil gas erred: %v", err)
		}
	}
	if g.Err() != nil || g.Spent() != 0 {
		t.Fatal("nil gas carries state")
	}
}

func TestGasBudgetExhaustion(t *testing.T) {
	sys := chainWithLoop(10_000)
	g := NewGas(context.Background(), 100)
	_, err := ReachGas(g, sys, sys.Init())
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// The error is sticky: later calls fail immediately.
	if err := g.Tick(0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestGasContextCancellation(t *testing.T) {
	sys := chainWithLoop(100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the first poll must notice
	g := NewGas(ctx, -1)
	if _, err := ReachGas(g, sys, sys.Init()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestGasMeteredSweepsMatchUnmetered(t *testing.T) {
	sys := chainWithLoop(500)
	g := NewGas(context.Background(), -1)

	r, err := ReachGas(g, sys, sys.Init())
	if err != nil || !r.Equal(ReachFromInit(sys)) {
		t.Fatalf("ReachGas mismatch (err=%v)", err)
	}
	cd, err := SCCsGas(g, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := SCCs(sys, nil); cd.Len() != want.Len() || !slices.Equal(cd.Members, want.Members) {
		t.Fatalf("SCCsGas found %d components, want %d", cd.Len(), want.Len())
	}
	cyc, err := FindCycleWithinGas(g, sys, bitset.Full(sys.NumStates()))
	if err != nil || cyc == nil {
		t.Fatalf("FindCycleWithinGas missed the cycle (err=%v)", err)
	}
	fix, err := GreatestFixpointGas(g, bitset.Full(sys.NumStates()), func(s int, cur *bitset.Set) bool {
		return s%2 == 0 || s < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	want := GreatestFixpoint(bitset.Full(sys.NumStates()), func(s int, cur *bitset.Set) bool {
		return s%2 == 0 || s < 10
	})
	if !fix.Equal(want) {
		t.Fatal("GreatestFixpointGas mismatch")
	}
	if g.Spent() == 0 {
		t.Fatal("meter recorded no work")
	}
}

func TestGasFixpointBudget(t *testing.T) {
	full := bitset.Full(10_000)
	g := NewGas(nil, 50)
	_, err := GreatestFixpointGas(g, full, func(int, *bitset.Set) bool { return true })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}
