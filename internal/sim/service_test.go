package sim

import (
	"math/rand"
	"testing"
)

func TestServiceSafeFromLegitimate(t *testing.T) {
	p := newProto("dijkstra3", 6, 0)
	legit, err := LegitimateConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := MeasureService(p, NewRoundRobinDaemon(p.Procs()), legit, 600)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ViolationSteps != 0 || stats.StepsToSafety != 0 {
		t.Fatalf("violations from legitimate start: %+v", stats)
	}
	// Service liveness and fairness: every process enters its critical
	// section, and no process is starved relative to the others by more
	// than the natural bounce asymmetry.
	if stats.MinEntries() == 0 {
		t.Fatalf("some process never served: %v", stats.Entries)
	}
	if stats.MaxEntries() > 4*stats.MinEntries() {
		t.Fatalf("service too skewed: %v", stats.Entries)
	}
}

func TestServiceRecoversAfterFaults(t *testing.T) {
	p := newProto("dijkstra3", 7, 0)
	legit, err := LegitimateConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	start := Corrupt(p, legit, 5, rng)
	stats, err := MeasureService(p, NewRandomDaemon(4), start, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Violations may occur during recovery but must stop well before the
	// end of the run.
	if stats.StepsToSafety >= stats.Steps/2 {
		t.Fatalf("safety not regained promptly: %+v", stats)
	}
	if stats.ViolationSteps > stats.StepsToSafety {
		t.Fatalf("violation accounting inconsistent: %+v", stats)
	}
}

func TestServiceValidation(t *testing.T) {
	p := newProto("dijkstra3", 4, 0)
	if _, err := MeasureService(p, NewRandomDaemon(1), make(Config, 4), 0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := MeasureService(p, NewRandomDaemon(1), make(Config, 2), 5); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestServiceEntriesSumToSteps(t *testing.T) {
	p := newProto("kstate", 5, 5)
	legit, err := LegitimateConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := MeasureService(p, NewRandomDaemon(8), legit, 500)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, e := range stats.Entries {
		sum += e
	}
	if sum != stats.Steps || stats.Steps != 500 {
		t.Fatalf("entry accounting: %+v", stats)
	}
	if stats.MaxEntries() == 0 {
		t.Fatal("no entries recorded")
	}
}
