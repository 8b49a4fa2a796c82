package core

import (
	"strings"
	"testing"

	"repro/internal/system"
)

// labeledCounter builds, through the raw labeled constructor, a system
// over x ∈ 0..card−1 with x = 0 initial: action a moves x to moves[a](x),
// and is disabled where that is −1.
func labeledCounter(card int, actions []string, moves ...func(x int) int) *system.LabeledSystem {
	b := system.NewSpaceBuilder("C", system.NewSpace(system.Int("x", card)))
	b.AddInit(0)
	off := []int{0}
	var edges []system.LabeledEdge
	for x := 0; x < card; x++ {
		for a, move := range moves {
			if to := move(x); to >= 0 {
				b.AddTransition(x, to)
				edges = append(edges, system.LabeledEdge{Action: a, To: to})
			}
		}
		off = append(off, len(edges))
	}
	return system.NewLabeled(b.Build(), actions, off, edges)
}

// when is the move to x' where cond holds, and disabled elsewhere.
func when(cond func(x int) bool, to func(x int) int) func(int) int {
	return func(x int) int {
		if cond(x) {
			return to(x)
		}
		return -1
	}
}

func positive(x int) bool { return x > 0 }
func zero(x int) bool     { return x == 0 }
func toZero(int) int      { return 0 }
func chaseMove(x int) int { return 3 - x } // 1 ↔ 2

// specZero is the specification over n states whose only behavior is the
// initial self-loop at 0.
func specZero(n int) *system.System {
	ab := system.NewBuilder("A", n)
	ab.AddTransition(0, 0)
	ab.AddInit(0)
	return ab.Build()
}

// starveFixture builds a labeled system where an unfair daemon can loop
// on a "chase" action forever while a continuously enabled "recover"
// action would leave the bad region: states 1 ↔ 2 chase each other, and
// recover (enabled in both) exits to the legitimate self-loop at 0.
func starveFixture() (*system.LabeledSystem, *system.System) {
	c := labeledCounter(3, []string{"chase", "recover", "stay"},
		when(positive, chaseMove), when(positive, toZero), when(zero, toZero))
	return c, specZero(3)
}

func TestFairStabilizingBreaksStarvation(t *testing.T) {
	c, a := starveFixture()
	// Unfair: the chase loop never recovers.
	unfair := Stabilizing(c.Base(), a, nil)
	if unfair.Holds {
		t.Fatalf("unfair check should fail: %s", unfair.Verdict)
	}
	// Weakly fair: recover is continuously enabled on the chase loop and
	// must eventually be taken.
	fair := FairStabilizing(c, a, nil)
	if !fair.Holds {
		t.Fatalf("fair check should pass: %s", fair.Verdict)
	}
	if !strings.Contains(fair.Relation, "weak fairness") {
		t.Fatalf("relation = %q", fair.Relation)
	}
}

func TestFairStabilizingStillCatchesRealDivergence(t *testing.T) {
	// A chase loop with NO escape stays a violation under fairness: the
	// only action enabled on the loop is the chase itself, which is taken.
	c := labeledCounter(3, []string{"chase", "stay"}, when(positive, chaseMove), when(zero, toZero))
	rep := FairStabilizing(c, specZero(3), nil)
	if rep.Holds {
		t.Fatalf("fair check should still fail: %s", rep.Verdict)
	}
	if len(rep.WitnessLoop) == 0 {
		t.Fatal("expected a loop witness")
	}
}

func TestFairStabilizingBadTerminal(t *testing.T) {
	// x=1 is terminal in C.
	c := labeledCounter(2, []string{"stay"}, when(zero, toZero))
	rep := FairStabilizing(c, specZero(2), nil)
	if rep.Holds {
		t.Fatalf("bad terminal accepted under fairness: %s", rep.Verdict)
	}
	if !strings.Contains(rep.Reason, "terminal") {
		t.Fatalf("reason = %q", rep.Reason)
	}
}

func TestFairImpliedByUnfair(t *testing.T) {
	// Whenever the unfair check passes, the fair check must pass too
	// (fair computations are a subset of all computations).
	// The starvation fixture restricted to its recovering part: no chase.
	a := specZero(3)
	onlyRecover := labeledCounter(3, []string{"recover", "stay"}, when(positive, toZero), when(zero, toZero))
	if rep := Stabilizing(onlyRecover.Base(), a, nil); !rep.Holds {
		t.Fatalf("unfair: %s", rep.Verdict)
	}
	if rep := FairStabilizing(onlyRecover, a, nil); !rep.Holds {
		t.Fatalf("fair must follow: %s", rep.Verdict)
	}
}

func TestFairStabilizingSpaceMismatch(t *testing.T) {
	c := labeledCounter(2, nil)
	rep := FairStabilizing(c, line("A", 3), nil)
	if rep.Holds {
		t.Fatal("mismatched spaces accepted")
	}
}
