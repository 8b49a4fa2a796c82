package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cluster/store"
	"repro/internal/sim"
)

// crashEpisode is the supervised-crash scenario: dijkstra3 on 5 nodes,
// legitimate start, one crash mid-run, snapshots persisted to st.
func crashEpisode(st *store.Store, persistEvery int) (Options, sim.Config) {
	sched, err := ParseSchedule("crash@50:node=2")
	if err != nil {
		panic(err)
	}
	return Options{
		Proto:          newProto("dijkstra3", 5, 0),
		Seed:           11,
		MaxSteps:       2000,
		Schedule:       sched,
		StopWhenStable: true,
		Store:          st,
		PersistEvery:   persistEvery,
	}, sim.Config{2, 0, 0, 0, 0}
}

// findEvent returns the first event of the given kind, if any.
func findEvent(events []Event, kind string) (Event, bool) {
	for _, ev := range events {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return Event{}, false
}

// TestCrashRecoversFromSnapshot: with a healthy store, a crashed node
// comes back with its persisted register — the recovered event says
// from=snapshot — and the ring re-stabilizes with the downtime counted
// in the stabilization.
func TestCrashRecoversFromSnapshot(t *testing.T) {
	st := store.New(store.NewMemFS())
	opts, start := crashEpisode(st, 1)
	res, err := Run(context.Background(), opts, start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("episode did not converge: final %v", res.Final)
	}
	crashed, ok := findEvent(res.Events, "crashed")
	if !ok || crashed.Step != 50 || crashed.Node != 2 || crashed.Fault != "crash@50:node=2" {
		t.Fatalf("crashed event malformed: %+v (ok=%v)", crashed, ok)
	}
	rec, ok := findEvent(res.Events, "recovered")
	if !ok {
		t.Fatalf("no recovered event: %+v", res.Events)
	}
	if rec.From != RecoverFromSnapshot || rec.Node != 2 {
		t.Fatalf("recovered event wants from=snapshot node=2: %+v", rec)
	}
	if rec.Step <= crashed.Step {
		t.Fatalf("recovery at %d not after crash at %d", rec.Step, crashed.Step)
	}
	// The crash destabilized the view; the matching stabilization spans
	// the whole downtime (MTTR includes restart backoff and replay).
	var spanning *Stabilization
	for i := range res.Stabilizations {
		s := res.Stabilizations[i]
		if s.BrokenAt == crashed.Step {
			spanning = &s
		}
	}
	if spanning == nil {
		t.Fatalf("no stabilization broken at crash step %d: %+v", crashed.Step, res.Stabilizations)
	}
	if spanning.StableAt < rec.Step {
		t.Fatalf("stabilization at %d precedes recovery at %d", spanning.StableAt, rec.Step)
	}
	if res.Storage == nil || res.Storage.Restored == 0 || res.Storage.Saves == 0 {
		t.Fatalf("storage stats missing restore: %+v", res.Storage)
	}
}

// TestCrashRecoversFromCorruptedSnapshot is the acceptance scenario:
// every persisted snapshot is corrupted by the storage-fault injector,
// so at recovery the checksum validation fails, the node resumes from
// arbitrary state (recovered(from=arbitrary)), and the ring still
// re-stabilizes — the restart is an in-model transient fault.
func TestCrashRecoversFromCorruptedSnapshot(t *testing.T) {
	inj := store.NewInjector(store.NewMemFS(), 5, store.Plan{Every: 1, Kinds: []store.FaultKind{store.FaultBitFlip}})
	st := store.New(inj)
	opts, start := crashEpisode(st, 1)
	res, err := Run(context.Background(), opts, start)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := findEvent(res.Events, "recovered")
	if !ok {
		t.Fatalf("no recovered event: %+v", res.Events)
	}
	if rec.From != RecoverFromArbitrary || rec.Node != 2 {
		t.Fatalf("recovered event wants from=arbitrary node=2: %+v", rec)
	}
	if !res.Converged || !opts.Proto.Legitimate(res.Final) {
		t.Fatalf("ring did not re-stabilize after arbitrary resume: final %v", res.Final)
	}
	if res.Storage == nil || res.Storage.CorruptLoads == 0 {
		t.Fatalf("corrupt load not counted: %+v", res.Storage)
	}
}

// TestCrashWithoutStoreResumesArbitrary: no store at all means every
// recovery is from arbitrary state, and convergence still holds.
func TestCrashWithoutStoreResumesArbitrary(t *testing.T) {
	opts, start := crashEpisode(nil, 0)
	res, err := Run(context.Background(), opts, start)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := findEvent(res.Events, "recovered")
	if !ok || rec.From != RecoverFromArbitrary {
		t.Fatalf("recovered event wants from=arbitrary: %+v (ok=%v)", rec, ok)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final %v", res.Final)
	}
	if res.Storage != nil {
		t.Fatalf("storage stats reported without a store: %+v", res.Storage)
	}
}

// TestCrashLoopDetected: repeated rapid crashes of the same node raise
// exactly one crashloop event for the burst, and the backoff grows —
// later restarts take longer than the first.
func TestCrashLoopDetected(t *testing.T) {
	sched, err := ParseSchedule("crash@20:node=1;crash@60:node=1;crash@100:node=1")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Proto:          newProto("dijkstra3", 5, 0),
		Seed:           3,
		MaxSteps:       3000,
		Schedule:       sched,
		StopWhenStable: true,
	}
	res, err := Run(context.Background(), opts, sim.Config{0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	for _, ev := range res.Events {
		if ev.Kind == "crashloop" {
			loops++
			if ev.Node != 1 {
				t.Fatalf("crashloop names node %d, want 1", ev.Node)
			}
		}
	}
	if loops != 1 {
		t.Fatalf("want exactly 1 crashloop event, got %d: %+v", loops, res.Events)
	}
	// Downtime per crash: pair each crashed event with its recovery.
	var downs []int
	downAt := -1
	for _, ev := range res.Events {
		switch ev.Kind {
		case "crashed":
			downAt = ev.Step
		case "recovered":
			downs = append(downs, ev.Step-downAt)
		}
	}
	if len(downs) != 3 {
		t.Fatalf("want 3 crash/recovery pairs, got %v", downs)
	}
	if downs[2] <= downs[0] {
		t.Fatalf("backoff did not grow: downtimes %v", downs)
	}
	if !res.Converged {
		t.Fatalf("did not converge after crash loop: final %v", res.Final)
	}
}

// TestCrashDeterministic: a stepped run with crash faults and a seeded
// storage-fault plan replays byte-for-byte.
func TestCrashDeterministic(t *testing.T) {
	run := func() []byte {
		inj := store.NewInjector(store.NewMemFS(), 7, store.Plan{Every: 3, Kinds: []store.FaultKind{store.FaultTorn, store.FaultStale}})
		st := store.New(inj)
		sched, err := ParseSchedule("crash@30:node=0;crash@90:node=3;corrupt@60:node=4,val=1")
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Proto:          newProto("dijkstra3", 5, 0),
			Seed:           21,
			MaxSteps:       2500,
			Schedule:       sched,
			RecordMoves:    true,
			StopWhenStable: true,
			Store:          st,
			PersistEvery:   2,
		}
		res, err := Run(context.Background(), opts, sim.Config{1, 1, 0, 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
}

// TestCrashedNodeIgnoresStateFaults: a corrupt fault aimed at a node
// while it is down hits nothing — the dead process has no register —
// and the monitor's view stays consistent with the node's state.
func TestCrashedNodeIgnoresStateFaults(t *testing.T) {
	// Crash at 20; the corrupt at 22 lands inside the backoff window
	// (minimum downtime is crashBackoffBase steps).
	sched, err := ParseSchedule("crash@20:node=2;corrupt@22:node=2,val=2")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Proto:          newProto("dijkstra3", 5, 0),
		Seed:           13,
		MaxSteps:       2000,
		Schedule:       sched,
		StopWhenStable: true,
	}
	res, err := Run(context.Background(), opts, sim.Config{0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final %v", res.Final)
	}
	var crashStep, recStep int
	for _, ev := range res.Events {
		switch ev.Kind {
		case "crashed":
			crashStep = ev.Step
		case "recovered":
			recStep = ev.Step
		}
	}
	if crashStep != 20 || recStep <= 22 {
		t.Fatalf("corrupt at 22 did not land inside downtime [%d,%d]", crashStep, recStep)
	}
}
