package cluster

import (
	"context"
	"encoding/json"
	"testing"

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

// faultEpisode is the acceptance scenario shared by several tests and
// the golden test: dijkstra3 on 5 nodes, a perturbed start, and one
// mid-run register corruption at step 40.
func faultEpisode() (Options, sim.Config) {
	sched, err := ParseSchedule("corrupt@40:node=1,val=0")
	if err != nil {
		panic(err)
	}
	return Options{
		Proto:          newProto("dijkstra3", 5, 0),
		Seed:           6,
		MaxSteps:       2000,
		Schedule:       sched,
		SnapshotEvery:  20,
		StopWhenStable: true,
	}, sim.Config{0, 2, 0, 0, 0}
}

// TestSteppedFaultRecovery is the tentpole acceptance test: a seeded
// in-proc run of dijkstra3 (N=5) with one mid-run register corruption
// re-stabilizes, and the Monitor's event stream records both the fault
// and the recovery.
func TestSteppedFaultRecovery(t *testing.T) {
	opts, start := faultEpisode()
	res, err := Run(context.Background(), opts, start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("episode did not converge: %+v", res)
	}
	if len(res.Stabilizations) != 2 {
		t.Fatalf("want 2 stabilizations (perturbed start, injected fault), got %+v", res.Stabilizations)
	}
	first, second := res.Stabilizations[0], res.Stabilizations[1]
	if first.BrokenAt != 0 || first.StableAt <= 0 {
		t.Fatalf("initial stabilization malformed: %+v", first)
	}
	if second.BrokenAt != 40 || second.StableAt <= 40 || second.Steps != second.StableAt-second.BrokenAt {
		t.Fatalf("fault recovery malformed: %+v", second)
	}

	var sawFault, sawRecovery bool
	for _, ev := range res.Events {
		switch ev.Kind {
		case "fault":
			if ev.Step != 40 || ev.Node != 1 || ev.Fault != "corrupt@40:node=1,val=0" {
				t.Fatalf("fault event malformed: %+v", ev)
			}
			sawFault = true
		case "stabilized":
			if sawFault {
				if ev.Step != second.StableAt || ev.After != second.Steps {
					t.Fatalf("recovery event disagrees with stabilization record: %+v vs %+v", ev, second)
				}
				sawRecovery = true
			}
		}
	}
	if !sawFault || !sawRecovery {
		t.Fatalf("event stream missing fault (%v) or recovery (%v): %+v", sawFault, sawRecovery, res.Events)
	}

	if !opts.Proto.Legitimate(res.Final) {
		t.Fatalf("final view %v is not legitimate", res.Final)
	}
	total := 0
	for _, m := range res.MovesPerNode {
		total += m
	}
	if total != res.Moves || res.Moves == 0 {
		t.Fatalf("moves bookkeeping: total %d vs %d", total, res.Moves)
	}
}

// TestSteppedDeterministic runs the same seeded episode twice —
// including link faults so the injector is on the deterministic path —
// and requires byte-identical full results.
func TestSteppedDeterministic(t *testing.T) {
	sched, err := ParseSchedule("drop@10:link=0>1,count=2;corrupt@40:node=1,val=0;delay@50:link=4>0,count=8;dup@60:link=2>3;" +
		"partition@70:cut=0+1|2+3+4,count=30;isolate@130:node=3,count=20")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Proto:          newProto("dijkstra3", 5, 0),
		Seed:           11,
		MaxSteps:       500,
		Schedule:       sched,
		SnapshotEvery:  25,
		RecordMoves:    true,
		StopWhenStable: true,
	}
	start := sim.Config{0, 1, 2, 1, 0}
	var runs [2][]byte
	for i := range runs {
		res, err := Run(context.Background(), opts, start)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = raw
	}
	if string(runs[0]) != string(runs[1]) {
		t.Fatalf("seeded stepped runs diverged:\n%s\nvs\n%s", runs[0], runs[1])
	}
}

// TestSteppedPartitionHeal opens a partition across the ring, corrupts
// a register while the cut is active, and requires the monitor to see
// the heal event and the ring to re-stabilize afterwards. Messages
// crossing the cut must show up as drops in the link statistics.
func TestSteppedPartitionHeal(t *testing.T) {
	sched, err := ParseSchedule("partition@30:cut=0+1|2+3+4,count=60;corrupt@35:node=2,val=0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Options{
		Proto:          newProto("dijkstra3", 5, 0),
		Seed:           3,
		MaxSteps:       5000,
		Schedule:       sched,
		StopWhenStable: true,
	}, sim.Config{0, 1, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("ring did not re-stabilize after partition heal: final %v", res.Final)
	}
	var healStep int
	for _, ev := range res.Events {
		if ev.Kind == "heal" {
			healStep = ev.Step
			if ev.Fault != "partition@30:cut=0+1|2+3+4,count=60" {
				t.Fatalf("heal names the wrong fault: %+v", ev)
			}
		}
	}
	if healStep != 90 {
		t.Fatalf("heal at step %d, want 90", healStep)
	}
	// The episode may not end while the cut is open.
	if res.Steps < healStep {
		t.Fatalf("episode ended at step %d, before the heal at %d", res.Steps, healStep)
	}
	crossDrops := 0
	for _, st := range res.Links {
		cross := (st.From <= 1) != (st.To <= 1)
		if cross {
			crossDrops += st.Dropped
		} else if st.Dropped != 0 {
			t.Fatalf("same-side link %d>%d recorded drops: %+v", st.From, st.To, st)
		}
	}
	if crossDrops == 0 {
		t.Fatal("no cross-cut messages were dropped; was the partition active?")
	}
}

// TestSteppedIsolateRecovers cuts one node off mid-run; after the heal
// the anti-entropy refresh must let the ring converge again.
func TestSteppedIsolateRecovers(t *testing.T) {
	sched, err := ParseSchedule("isolate@20:node=1,count=50;corrupt@25:node=1,val=2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Options{
		Proto:          newProto("dijkstra3", 5, 0),
		Seed:           7,
		MaxSteps:       5000,
		Schedule:       sched,
		StopWhenStable: true,
	}, sim.Config{0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("ring did not recover from isolation: final %v", res.Final)
	}
	sawHeal := false
	for _, ev := range res.Events {
		if ev.Kind == "heal" && ev.Node == 1 {
			sawHeal = true
		}
	}
	if !sawHeal {
		t.Fatal("isolate heal event missing from stream")
	}
}

// TestStallFault removes node 0 from scheduling: it must execute no
// moves while the rest of the ring keeps running.
func TestStallFault(t *testing.T) {
	sched, err := ParseSchedule("stall@1:node=0,count=400")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Options{
		Proto:    newProto("dijkstra3", 5, 0),
		Seed:     2,
		MaxSteps: 300, // entirely inside the stall window
		Schedule: sched,
	}, sim.Config{0, 1, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.MovesPerNode[0] != 0 {
		t.Fatalf("stalled node moved %d times", res.MovesPerNode[0])
	}
	if res.Moves == 0 {
		t.Fatal("rest of the ring made no progress during the stall")
	}
}

// TestRestartFault reboots a node mid-run: the probe protocol must
// refill its neighbor views so it rejoins the ring and moves again.
func TestRestartFault(t *testing.T) {
	sched, err := ParseSchedule("restart@30:node=2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Options{
		Proto:       newProto("dijkstra3", 5, 0),
		Seed:        4,
		MaxSteps:    400,
		Schedule:    sched,
		RecordMoves: true,
	}, sim.Config{0, 1, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	movedAfterRestart := false
	for _, ev := range res.Events {
		if ev.Kind == "move" && ev.Node == 2 && ev.Step > 30 {
			movedAfterRestart = true
			break
		}
	}
	if !movedAfterRestart {
		t.Fatal("restarted node never moved again; probe protocol broken?")
	}
	if !res.Converged {
		t.Fatalf("ring did not return to legitimacy after restart: final %v", res.Final)
	}
}

// TestEveryProtocolConvergesInProc runs each protocol family once over
// the stepped engine from a perturbed start.
func TestEveryProtocolConvergesInProc(t *testing.T) {
	protos := []*sim.Protocol{
		newProto("dijkstra3", 5, 0),
		newProto("dijkstra4", 5, 0),
		newProto("kstate", 5, 5),
		newProto("newthree", 5, 0),
	}
	for _, p := range protos {
		t.Run(p.Name(), func(t *testing.T) {
			legit, err := sim.LegitimateConfig(p)
			if err != nil {
				t.Fatal(err)
			}
			start := legit.Clone()
			start[1] = (start[1] + 1) % p.Domain(1)
			start[3] = (start[3] + 1) % p.Domain(3)
			res, err := Run(context.Background(), Options{
				Proto:          p,
				Seed:           9,
				MaxSteps:       20000,
				StopWhenStable: true,
			}, start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s did not converge from %v; final %v", p.Name(), start, res.Final)
			}
		})
	}
}

// TestRunValidation exercises the argument checks.
func TestRunValidation(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	good := sim.Config{0, 0, 0, 0, 0}
	cases := []struct {
		name    string
		opts    Options
		initial sim.Config
	}{
		{"nil proto", Options{MaxSteps: 10}, good},
		{"no budget", Options{Proto: p}, good},
		{"bad config length", Options{Proto: p, MaxSteps: 10}, sim.Config{0, 0}},
		{"register out of domain", Options{Proto: p, MaxSteps: 10}, sim.Config{0, 0, 7, 0, 0}},
		{"schedule node out of range", Options{Proto: p, MaxSteps: 10,
			Schedule: []Fault{{Kind: FaultCorrupt, Step: 1, Node: 9, Val: 0, Count: 1}}}, good},
		{"schedule value out of domain", Options{Proto: p, MaxSteps: 10,
			Schedule: []Fault{{Kind: FaultCorrupt, Step: 1, Node: 1, Val: 5, Count: 1}}}, good},
		{"transport size mismatch", Options{Proto: p, MaxSteps: 10,
			Transport: NewChanTransport(3)}, good},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(context.Background(), tc.opts, tc.initial); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestSteppedHonorsCancellation: a cancelled context stops the stepped
// engine promptly with the context's error.
func TestSteppedHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Options{Proto: newProto("dijkstra3", 5, 0), Seed: 1, MaxSteps: 1000},
		sim.Config{0, 1, 2, 1, 0})
	if err == nil {
		t.Fatal("want context error")
	}
}
