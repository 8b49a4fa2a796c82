package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/system"
)

// randomLabeled builds a random labeled system over a small integer space
// with a handful of guarded actions, plus a matching unlabeled spec whose
// legitimate behavior is the self-loop region {0}.
func randomLabeled(rng *rand.Rand) (*system.LabeledSystem, *system.System) {
	card := 3 + rng.Intn(4)
	nActs := 2 + rng.Intn(4)
	names := []string{"stay"}
	// Always include the legitimate self-loop at 0 so the spec region is
	// inhabited.
	moves := []func(int) int{when(zero, toZero)}
	for i := 1; i < nActs; i++ {
		lo := rng.Intn(card)
		target := rng.Intn(card)
		names = append(names, fmt.Sprintf("a%d", i))
		moves = append(moves, when(func(x int) bool { return x >= lo && x != target },
			func(int) int { return target }))
	}
	return labeledCounter(card, names, moves...), specZero(card)
}

// TestQuickFairWeakerThanUnfair: on random labeled systems, whenever the
// unfair stabilization check passes, the weak-fairness check must pass
// too (fair computations are a subset of all computations), and whenever
// the fair check fails, the unfair one must fail as well.
func TestQuickFairWeakerThanUnfair(t *testing.T) {
	agreePass, agreeFail, fairOnly := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c, a := randomLabeled(rng)
		unfair := Stabilizing(c.Base(), a, nil)
		fair := FairStabilizing(c, a, nil)
		switch {
		case unfair.Holds && !fair.Holds:
			t.Fatalf("trial %d: unfair passes but fair fails\nunfair: %s\nfair: %s",
				trial, unfair.Verdict, fair.Verdict)
		case unfair.Holds && fair.Holds:
			agreePass++
		case !unfair.Holds && fair.Holds:
			fairOnly++
		default:
			agreeFail++
		}
	}
	// The generator must exercise all three reachable cells.
	if agreePass == 0 || agreeFail == 0 || fairOnly == 0 {
		t.Fatalf("generator too narrow: pass=%d fail=%d fairOnly=%d", agreePass, agreeFail, fairOnly)
	}
}
