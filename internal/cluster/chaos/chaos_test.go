package chaos

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/store"
	"repro/internal/sim"
)

// newProto builds a protocol family the tests know to be valid.
func newProto(family string, p, k int) *sim.Protocol {
	proto, err := sim.NewProtocol(family, p, k)
	if err != nil {
		panic(err)
	}
	return proto
}

func baseOptions() Options {
	return Options{
		Proto:    newProto("dijkstra3", 5, 0),
		Seed:     42,
		Episodes: 6,
		MaxSteps: 5000,
		Template: Template{
			Kinds:       []cluster.FaultKind{cluster.FaultCorrupt, cluster.FaultRestart, cluster.FaultPartition, cluster.FaultIsolate},
			Faults:      4,
			Gap:         60,
			Start:       30,
			CutDuration: 40,
		},
	}
}

func TestCampaignConverges(t *testing.T) {
	rep, err := Run(context.Background(), baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Failed != 0 || rep.Passed != 6 {
		t.Fatalf("campaign failed: passed=%d failed=%d %+v", rep.Passed, rep.Failed, rep.EpisodeResults)
	}
	if rep.Transport != "chan" {
		t.Fatalf("transport %q, want chan", rep.Transport)
	}
	if rep.MTTR.N == 0 {
		t.Fatal("no recoveries measured — faults never destabilized the ring?")
	}
	if rep.MTTR.Max < rep.MTTR.P50 || rep.Worst == nil || rep.Worst.Steps != rep.MTTR.Max {
		t.Fatalf("summary inconsistent: mttr=%+v worst=%+v", rep.MTTR, rep.Worst)
	}
	if len(rep.Kinds) == 0 {
		t.Fatal("no per-kind recovery stats")
	}
	for k, ks := range rep.Kinds {
		if ks.Recoveries == 0 || ks.WorstSteps < 0 {
			t.Fatalf("kind %s stats %+v", k, ks)
		}
	}
	// Every episode carries a generated schedule that the cluster layer
	// can re-parse (the service keys its cache on this rendering).
	for _, ep := range rep.EpisodeResults {
		sched, err := cluster.ParseSchedule(ep.Schedule)
		if err != nil {
			t.Fatalf("episode %d schedule %q does not re-parse: %v", ep.Index, ep.Schedule, err)
		}
		if len(sched) != 4 {
			t.Fatalf("episode %d has %d faults, want 4", ep.Index, len(sched))
		}
	}
}

// TestCampaignDeterministic is the reproducibility acceptance check:
// on the stepped transport the same seed produces a byte-identical
// JSON report, and a different seed produces a different campaign.
func TestCampaignDeterministic(t *testing.T) {
	render := func(seed int64) string {
		o := baseOptions()
		o.Seed = seed
		rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := render(42), render(42)
	if a != b {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
	if render(43) == a {
		t.Fatal("different seeds produced identical campaigns")
	}
}

// TestCampaignSLOViolation sets the budget deliberately below the
// measured worst case and expects the campaign to fail with named
// violations.
func TestCampaignSLOViolation(t *testing.T) {
	o := baseOptions()
	probe, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if probe.MTTR.Max < 2 {
		t.Fatalf("campaign too tame to test SLO violation: mttr=%+v", probe.MTTR)
	}
	o.SLO = SLO{RecoverySteps: probe.MTTR.Max - 1}
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Failed == 0 {
		t.Fatalf("budget below worst case but campaign passed: %+v", rep.MTTR)
	}
	found := false
	for _, ep := range rep.EpisodeResults {
		for _, v := range ep.Violations {
			if strings.Contains(v, "budget") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no violation names the budget")
	}
}

func TestCampaignMaxTokensSLO(t *testing.T) {
	o := baseOptions()
	o.SLO = SLO{MaxTokens: 1} // a ring under faults always exceeds one token
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("token budget of 1 passed under corruption faults")
	}
}

func TestCampaignOverTCP(t *testing.T) {
	o := baseOptions()
	o.Episodes = 2
	o.MaxSteps = 500_000
	o.Template.Gap = 100
	o.Template.CutDuration = 200
	o.NewTransport = func(procs int) (cluster.Transport, error) {
		return cluster.NewTCPTransport(procs)
	}
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transport != "tcp" {
		t.Fatalf("transport %q, want tcp", rep.Transport)
	}
	if !rep.Pass {
		t.Fatalf("TCP campaign failed: %+v", rep.EpisodeResults)
	}
}

func TestRunSweep(t *testing.T) {
	o := baseOptions()
	o.Episodes = 3
	base := o.Template
	var templates []Template
	for _, gap := range []int{80, 40} {
		tpl := base
		tpl.Gap = gap
		templates = append(templates, tpl)
	}
	sw, err := RunSweep(context.Background(), o, templates)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Configs) != 2 || !sw.Pass {
		t.Fatalf("sweep %+v", sw)
	}
	if sw.Configs[0].Template == sw.Configs[1].Template {
		t.Fatal("sweep configs share a template rendering")
	}
}

func TestTemplateValidate(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	bad := []Template{
		{},
		{Kinds: []cluster.FaultKind{"melt"}, Faults: 1, Gap: 1, Start: 1},
		{Kinds: []cluster.FaultKind{cluster.FaultCorrupt}, Faults: 0, Gap: 1, Start: 1},
		{Kinds: []cluster.FaultKind{cluster.FaultCorrupt}, Faults: 1, Gap: 0, Start: 1},
		{Kinds: []cluster.FaultKind{cluster.FaultPartition}, Faults: 1, Gap: 1, Start: 1}, // no cut duration
	}
	for i, tpl := range bad {
		if err := tpl.Validate(); err == nil {
			t.Errorf("template %d (%+v) accepted", i, tpl)
		}
	}
	// Generated schedules always validate against the protocol.
	good := Template{
		Kinds: []cluster.FaultKind{cluster.FaultCorrupt, cluster.FaultDrop, cluster.FaultDup,
			cluster.FaultDelay, cluster.FaultStall, cluster.FaultRestart,
			cluster.FaultPartition, cluster.FaultIsolate},
		Faults: 20, Gap: 10, Start: 5, CutDuration: 15,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		sched := good.instantiate(p, schedRNG(seed))
		if err := cluster.ValidateSchedule(p, sched); err != nil {
			t.Fatalf("seed %d generated invalid schedule: %v", seed, err)
		}
	}
}

func TestPercentiles(t *testing.T) {
	if p := percentiles(nil); p.N != 0 {
		t.Fatalf("empty sample %+v", p)
	}
	p := percentiles([]int{5, 1, 9, 3, 7, 2, 8, 4, 6, 10})
	if p.N != 10 || p.P50 != 5 || p.P90 != 9 || p.P99 != 10 || p.Max != 10 {
		t.Fatalf("percentiles %+v", p)
	}
	one := percentiles([]int{4})
	if one.P50 != 4 || one.P99 != 4 || one.Max != 4 {
		t.Fatalf("single sample %+v", one)
	}
}

// TestCampaignCrashFaults: a crash-inclusive campaign with per-episode
// persistence and a hostile disk passes the recovery SLO, records
// crash-attributed recoveries, reports storage stats, and stays
// byte-deterministic on the stepped transport.
func TestCampaignCrashFaults(t *testing.T) {
	opts := Options{
		Proto:    newProto("dijkstra3", 5, 0),
		Seed:     9,
		Episodes: 6,
		MaxSteps: 5000,
		Template: Template{
			Kinds:  []cluster.FaultKind{cluster.FaultCrash, cluster.FaultCorrupt},
			Faults: 4,
			Gap:    120, // room for backoff + replay between faults
			Start:  30,
		},
		SLO:               SLO{RecoverySteps: 600},
		Persist:           true,
		PersistEvery:      2,
		StorageFaultEvery: 5,
	}
	render := func() (*Report, string) {
		rep, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, string(b)
	}
	rep, a := render()
	if !rep.Pass {
		t.Fatalf("crash campaign violated SLO: %+v", rep.EpisodeResults)
	}
	if _, ok := rep.Kinds["crash"]; !ok {
		t.Fatalf("no crash-attributed recoveries: %+v", rep.Kinds)
	}
	sawStorage, sawArbitrary, sawSnapshot := false, false, false
	for _, ep := range rep.EpisodeResults {
		if ep.Storage != nil && ep.Storage.Saves > 0 {
			sawStorage = true
		}
	}
	// Recovery sources: with a hostile disk faulting every 5th write,
	// both snapshot and arbitrary resumes should appear across episodes.
	for _, ep := range rep.EpisodeResults {
		if ep.Storage == nil {
			continue
		}
		if ep.Storage.Restored > 0 {
			sawSnapshot = true
		}
		if ep.Storage.CorruptLoads+ep.Storage.StaleLoads+ep.Storage.MissingLoads > 0 {
			sawArbitrary = true
		}
	}
	if !sawStorage {
		t.Fatal("no episode reported storage stats")
	}
	if !sawSnapshot && !sawArbitrary {
		t.Fatal("no snapshot loads observed at all — crashes never recovered through the store?")
	}
	if _, b := render(); a != b {
		t.Fatalf("crash campaign is not deterministic:\n%s\n%s", a, b)
	}
}

// TestCampaignDiskPressure: a campaign squeezing the disk with the
// enospc mix still converges — saves fail loudly (SaveErrors), the
// previous snapshot stays loadable, and self-stabilization carries the
// episodes through regardless.
func TestCampaignDiskPressure(t *testing.T) {
	opts := Options{
		Proto:    newProto("dijkstra3", 5, 0),
		Seed:     17,
		Episodes: 4,
		MaxSteps: 5000,
		Template: Template{
			Kinds:  []cluster.FaultKind{cluster.FaultCrash, cluster.FaultCorrupt},
			Faults: 3,
			Gap:    120,
			Start:  30,
		},
		SLO:               SLO{RecoverySteps: 600},
		Persist:           true,
		PersistEvery:      2,
		StorageFaultEvery: 3,
		StorageFaultKinds: []store.FaultKind{store.FaultENOSPC},
	}
	rep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("disk-pressure campaign violated SLO: %+v", rep.EpisodeResults)
	}
	sawSaveErrors := false
	for _, ep := range rep.EpisodeResults {
		if ep.Storage != nil && ep.Storage.SaveErrors > 0 {
			sawSaveErrors = true
		}
	}
	if !sawSaveErrors {
		t.Fatal("enospc mix never surfaced a save error — the pressure was silent")
	}
}

// TestStorageFaultsRequirePersist: the option dependency is validated.
func TestStorageFaultsRequirePersist(t *testing.T) {
	o := baseOptions()
	o.StorageFaultEvery = 3
	if _, err := Run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "Persist") {
		t.Fatalf("want Persist dependency error, got %v", err)
	}
}
