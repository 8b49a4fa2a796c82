package cluster

import (
	"strings"
	"testing"
)

func TestParseSchedule(t *testing.T) {
	sched, err := ParseSchedule(
		"drop@50:link=1>2,count=3; corrupt@120:node=2,val=1 ;restart@150:node=4;" +
			"stall@100:node=3,count=40;delay@60:link=2>3,count=10;dup@80:link=0>1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 6 {
		t.Fatalf("want 6 faults, got %d", len(sched))
	}
	// Sorted by step.
	for i := 1; i < len(sched); i++ {
		if sched[i-1].Step > sched[i].Step {
			t.Fatalf("schedule not sorted: %+v", sched)
		}
	}
	want := []string{
		"drop@50:link=1>2,count=3",
		"delay@60:link=2>3,count=10",
		"dup@80:link=0>1,count=1",
		"stall@100:node=3,count=40",
		"corrupt@120:node=2,val=1",
		"restart@150:node=4",
	}
	for i, w := range want {
		if got := sched[i].String(); got != w {
			t.Errorf("fault %d renders %q, want %q", i, got, w)
		}
	}
	// corrupt without val defaults to seeded-random (-1).
	random, err := ParseSchedule("corrupt@5:node=0")
	if err != nil {
		t.Fatal(err)
	}
	if random[0].Val != -1 {
		t.Fatalf("default corrupt val = %d, want -1 (random)", random[0].Val)
	}
	// Empty schedules are fine.
	if s, err := ParseSchedule("  "); err != nil || len(s) != 0 {
		t.Fatalf("blank schedule: %v %v", s, err)
	}
}

func TestParseScheduleCuts(t *testing.T) {
	sched, err := ParseSchedule("partition@200:cut=0+1|2+3+4,count=50; isolate@260:node=2,count=30")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 2 {
		t.Fatalf("want 2 faults, got %d", len(sched))
	}
	p := sched[0]
	if p.Kind != FaultPartition || len(p.A) != 2 || len(p.B) != 3 || p.Count != 50 {
		t.Fatalf("partition parsed as %+v", p)
	}
	// String renders back to canonical schedule syntax, and the render
	// re-parses to the same fault (the service cache keys on this).
	for i, want := range []string{
		"partition@200:cut=0+1|2+3+4,count=50",
		"isolate@260:node=2,count=30",
	} {
		got := sched[i].String()
		if got != want {
			t.Errorf("fault %d renders %q, want %q", i, got, want)
		}
		again, err := ParseSchedule(got)
		if err != nil || len(again) != 1 || again[0].String() != got {
			t.Errorf("render %q does not round-trip: %v %v", got, again, err)
		}
	}
}

func TestParseScheduleCutErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"partition without cut", "partition@5:count=3", "needs cut"},
		{"cut without separator", "partition@5:cut=0+1", "a|b node sets"},
		{"cut with bad node", "partition@5:cut=0+x|1", "integer node sets"},
		{"isolate without node", "isolate@5:count=3", "needs node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSchedule(tc.in)
			if err == nil {
				t.Fatalf("ParseSchedule(%q) succeeded", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseScheduleErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"missing step", "corrupt:node=1", "want kind@step"},
		{"bad step", "corrupt@x:node=1", "bad step"},
		{"negative step", "corrupt@-3:node=1", "bad step"},
		{"unknown kind", "melt@5:node=1", "unknown kind"},
		{"corrupt without node", "corrupt@5:val=1", "needs node"},
		{"drop without link", "drop@5:count=2", "needs link"},
		{"bad link", "drop@5:link=12", "from>to"},
		{"bad link endpoint", "drop@5:link=a>b", "integer endpoints"},
		{"unknown param", "corrupt@5:node=1,foo=2", "unknown parameter"},
		{"non-integer param", "corrupt@5:node=x", "not an integer"},
		{"zero count", "drop@5:link=0>1,count=0", "count must be"},
		{"bare param", "corrupt@5:node", "bad parameter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSchedule(tc.in)
			if err == nil {
				t.Fatalf("ParseSchedule(%q) succeeded", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestValidateSchedule(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	ok, err := ParseSchedule("corrupt@5:node=1,val=2;drop@6:link=0>1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(p, ok); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []string{
		"corrupt@5:node=9",                // node out of range
		"corrupt@5:node=1,val=3",          // value outside mod-3 domain
		"drop@5:link=0>7",                 // link endpoint out of range
		"partition@5:cut=0+1|2+9,count=3", // partition node out of range
		"partition@5:cut=0+1|1+2,count=3", // node on both sides
		"partition@5:cut=0+0|1+2,count=3", // node repeated within a side
		"isolate@5:node=7,count=3",        // isolate node out of range
	}
	for _, in := range bad {
		sched, err := ParseSchedule(in)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", in, err)
		}
		if err := ValidateSchedule(p, sched); err == nil {
			t.Errorf("ValidateSchedule accepted %q", in)
		}
	}
}

// recvOrNone drains at most one message without blocking.
func recvOrNone(t *ChanTransport, node int) (Message, bool) {
	select {
	case m := <-t.Recv(node):
		return m, true
	default:
		return Message{}, false
	}
}

func TestInjectorDrop(t *testing.T) {
	tr := NewChanTransport(3)
	in := newInjector(tr)
	in.arm(Fault{Kind: FaultDrop, From: 0, To: 1, Count: 2})
	for i := 0; i < 3; i++ {
		if err := in.Send(Message{From: 0, To: 1, Val: i, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := recvOrNone(tr, 1)
	if !ok || m.Val != 2 {
		t.Fatalf("want only the third message through, got %+v ok=%v", m, ok)
	}
	if _, ok := recvOrNone(tr, 1); ok {
		t.Fatal("extra message delivered")
	}
	st := in.linkStats()
	if len(st) != 1 || st[0].Sent != 3 || st[0].Dropped != 2 {
		t.Fatalf("link stats %+v", st)
	}
}

func TestInjectorDup(t *testing.T) {
	tr := NewChanTransport(3)
	in := newInjector(tr)
	in.arm(Fault{Kind: FaultDup, From: 1, To: 2, Count: 1})
	if err := in.Send(Message{From: 1, To: 2, Val: 7, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	a, okA := recvOrNone(tr, 2)
	b, okB := recvOrNone(tr, 2)
	if !okA || !okB || a != b {
		t.Fatalf("want the message twice, got %+v/%v %+v/%v", a, okA, b, okB)
	}
	// The fault is spent: the next message passes through once.
	if err := in.Send(Message{From: 1, To: 2, Val: 8, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrNone(tr, 2); !ok {
		t.Fatal("follow-up message lost")
	}
	if _, ok := recvOrNone(tr, 2); ok {
		t.Fatal("follow-up message duplicated")
	}
}

// TestInjectorPartition arms a cut and asserts messages crossing it are
// dropped in both directions, same-side traffic flows, and the cut
// heals at its expiry step.
func TestInjectorPartition(t *testing.T) {
	tr := NewChanTransport(4)
	in := newInjector(tr)
	in.advance(10)
	in.arm(Fault{Kind: FaultPartition, A: []int{0, 1}, B: []int{2, 3}, Count: 5})
	crossing := []Message{{From: 1, To: 2, Val: 1}, {From: 2, To: 1, Val: 2}}
	for _, m := range crossing {
		if err := in.Send(m); err != nil {
			t.Fatal(err)
		}
		if got, ok := recvOrNone(tr, m.To); ok {
			t.Fatalf("message crossed an active cut: %+v", got)
		}
	}
	// Same-side traffic is untouched.
	if err := in.Send(Message{From: 0, To: 1, Val: 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrNone(tr, 1); !ok {
		t.Fatal("same-side message dropped")
	}
	// At step 15 the cut heals.
	in.advance(15)
	if err := in.Send(Message{From: 1, To: 2, Val: 4}); err != nil {
		t.Fatal(err)
	}
	if m, ok := recvOrNone(tr, 2); !ok || m.Val != 4 {
		t.Fatalf("post-heal message lost: %+v ok=%v", m, ok)
	}
	st := in.linkStats()
	for _, s := range st {
		if s.From == 1 && s.To == 2 && s.Dropped != 1 {
			t.Fatalf("cut drops miscounted: %+v", st)
		}
	}
}

// TestInjectorIsolate cuts every link touching one node.
func TestInjectorIsolate(t *testing.T) {
	tr := NewChanTransport(3)
	in := newInjector(tr)
	in.arm(Fault{Kind: FaultIsolate, Node: 1, Count: 10})
	for _, m := range []Message{{From: 0, To: 1}, {From: 1, To: 2}} {
		if err := in.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvOrNone(tr, m.To); ok {
			t.Fatalf("message touching isolated node delivered: %+v", m)
		}
	}
	if err := in.Send(Message{From: 2, To: 0, Val: 9}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrNone(tr, 0); !ok {
		t.Fatal("unrelated link severed by isolate")
	}
}

func TestInjectorDelay(t *testing.T) {
	tr := NewChanTransport(3)
	in := newInjector(tr)
	in.advance(10)
	in.arm(Fault{Kind: FaultDelay, From: 2, To: 0, Count: 5})
	if err := in.Send(Message{From: 2, To: 0, Val: 9, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrNone(tr, 0); ok {
		t.Fatal("delayed message delivered immediately")
	}
	in.advance(14)
	if _, ok := recvOrNone(tr, 0); ok {
		t.Fatal("delayed message released early")
	}
	in.advance(15)
	m, ok := recvOrNone(tr, 0)
	if !ok || m.Val != 9 {
		t.Fatalf("delayed message not released at hold expiry: %+v ok=%v", m, ok)
	}
	// Only the next message is delayed; later traffic flows.
	if err := in.Send(Message{From: 2, To: 0, Val: 10, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrNone(tr, 0); !ok {
		t.Fatal("post-delay message lost")
	}
}
