package fleet

import (
	"context"
	"reflect"
	"testing"
)

// Sequential loadgen with a fixed seed produces identical count
// sections across fresh fleets — the property experiment E19 and
// BENCH_fleet.json stand on. The run itself must see zero 5xx and a
// warm cache must clear the 60% aggregate hit bar. Hedging is off, as
// in E19: a hedge fires on wall-clock time, so under CPU contention it
// would make the counts depend on the scheduler.
func TestLoadgenDeterministicCounts(t *testing.T) {
	run := func() *LoadgenReport {
		f := testFleet(t, 3, func(c *Config) { c.HedgeDelay = -1 })
		rep, err := RunLoadgen(context.Background(), LoadgenConfig{
			Addrs:    f.HTTPAddrs(),
			Requests: 90,
			Warmup:   30,
			Programs: 6,
			Seed:     7,
		})
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		return rep
	}
	a := run()
	b := run()

	if a.ServerErr5x != 0 || a.Status["error"] != 0 {
		t.Fatalf("healthy fleet produced failures: %+v", a.Status)
	}
	if a.HitRatio < 0.6 {
		t.Fatalf("post-warmup hit ratio %.4f below 0.6; report: %+v", a.HitRatio, a)
	}
	if a.Forwarded == 0 {
		t.Fatal("no request was ever forwarded; routing is vacuous")
	}
	total := 0
	for _, n := range a.ByKind {
		total += n
	}
	if total != 90 {
		t.Fatalf("by_kind sums to %d, want 90: %v", total, a.ByKind)
	}

	type counts struct {
		ByKind    map[string]int
		Status    map[string]int64
		Measured  int
		CachedOK  int64
		HitRatio  float64
		Forwarded int64
		PerRep    []ReplicaLoad
	}
	strip := func(r *LoadgenReport) counts {
		per := make([]ReplicaLoad, len(r.PerReplica))
		copy(per, r.PerReplica)
		for i := range per {
			per[i].LocalFallbacks = 0 // timing-dependent under heartbeat races
		}
		return counts{r.ByKind, r.Status, r.Measured, r.CachedOK, r.HitRatio, r.Forwarded, per}
	}
	if !reflect.DeepEqual(strip(a), strip(b)) {
		t.Fatalf("same seed, different counts:\n%+v\n%+v", strip(a), strip(b))
	}
}
