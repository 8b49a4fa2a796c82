package cluster

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestTCPTransportFrames exercises the wire path directly: a message
// sent through real loopback sockets arrives intact.
func TestTCPTransportFrames(t *testing.T) {
	tr, err := NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := Message{From: 0, To: 1, Val: 2, Seq: 7}
	if err := tr.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-tr.Recv(1):
		if got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
	// Probes survive the wire too.
	probe := Message{From: 2, To: 0, Seq: 1, Probe: true}
	if err := tr.Send(probe); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-tr.Recv(0):
		if !got.Probe || got.From != 2 {
			t.Fatalf("probe mangled: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe never arrived")
	}
}

// sendUntilDelivered retries Send until to's inbox yields a message
// with the wanted Val, tolerating transient write errors and dial
// backoff along the way.
func sendUntilDelivered(t *testing.T, tr *TCPTransport, m Message, deadline time.Duration) {
	t.Helper()
	stop := time.After(deadline)
	for {
		_ = tr.Send(m) // errors expected while the peer is down or backing off
		select {
		case got := <-tr.Recv(m.To):
			if got.Val == m.Val {
				return
			}
		case <-stop:
			t.Fatalf("message %+v never delivered within %v", m, deadline)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestTCPPeerRestart kills a peer's listener mid-episode and asserts
// the transport self-heals: sends to the dead peer fail, and once the
// peer restarts on the same address later sends succeed again.
func TestTCPPeerRestart(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Establish the cached route 0 -> 1.
	sendUntilDelivered(t, tr, Message{From: 0, To: 1, Val: 1}, 5*time.Second)

	if err := tr.StopNode(1); err != nil {
		t.Fatal(err)
	}
	// The cached connection is dead. The first write may still land in
	// the OS buffer, but within a few sends the transport must see the
	// error and evict the connection.
	sawErr := false
	for i := 0; i < 50 && !sawErr; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Val: 2}); err != nil {
			sawErr = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawErr {
		t.Fatal("sends to a stopped peer never failed")
	}
	// Drain anything that slipped through before the stop.
	for {
		select {
		case <-tr.Recv(1):
			continue
		default:
		}
		break
	}

	if err := tr.StartNode(1); err != nil {
		t.Fatal(err)
	}
	// Dial backoff expires, the next Send redials, delivery resumes.
	sendUntilDelivered(t, tr, Message{From: 0, To: 1, Val: 3}, 5*time.Second)
}

// hostilePeer dials node 0's listener directly and writes raw bytes.
// Each case must make the transport close the connection (our read
// sees EOF) without wedging the node: a well-formed message still
// arrives afterwards.
func hostilePeer(t *testing.T, write func(c *net.TCPConn)) {
	t.Helper()
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	raw, err := net.Dial("tcp", tr.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	c := raw.(*net.TCPConn)
	defer c.Close()
	write(c)
	// The transport must hang up on us.
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("transport kept the connection open after a hostile frame")
	}
	// The node is not wedged: normal traffic still flows.
	sendUntilDelivered(t, tr, Message{From: 1, To: 0, Val: 9}, 5*time.Second)
	// The deferred Close would hang on a leaked readLoop goroutine; the
	// test timing out here is the leak detector.
}

func TestTCPHostileOversizedFrame(t *testing.T) {
	hostilePeer(t, func(c *net.TCPConn) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrameBytes+1)
		if _, err := c.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTCPHostileTruncatedFrame(t *testing.T) {
	hostilePeer(t, func(c *net.TCPConn) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 100)
		if _, err := c.Write(append(hdr[:], []byte("only ten b")...)); err != nil {
			t.Fatal(err)
		}
		// Half-close: the frame promised 100 bytes and will never get
		// them. The reader must give up, not wait forever.
		if err := c.CloseWrite(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTCPHostileNonJSONFrame(t *testing.T) {
	hostilePeer(t, func(c *net.TCPConn) {
		payload := []byte("{not json!")
		frame := make([]byte, 4+len(payload))
		binary.BigEndian.PutUint32(frame, uint32(len(payload)))
		copy(frame[4:], payload)
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTCPPartitionHeal runs a full episode over real sockets with a
// mid-episode partition plus a corruption behind the cut, and asserts
// the ring re-stabilizes after the timed heal.
func TestTCPPartitionHeal(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	tr, err := NewTCPTransport(p.Procs())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sched, err := ParseSchedule("partition@50:cut=0+1|2+3+4,count=300;corrupt@60:node=3,val=0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{
		Proto:          p,
		Transport:      tr,
		Seed:           11,
		MaxSteps:       500_000,
		Schedule:       sched,
		StopWhenStable: true,
	}, sim.Config{2, 0, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("TCP ring did not re-stabilize after partition heal: final %v", res.Final)
	}
	var sawPartition, sawHeal bool
	for _, ev := range res.Events {
		switch ev.Kind {
		case "fault":
			if ev.Fault != "" && ev.Fault[:4] == "part" {
				sawPartition = true
			}
		case "heal":
			sawHeal = true
		}
	}
	if !sawPartition || !sawHeal {
		t.Fatalf("partition/heal events missing: partition=%v heal=%v", sawPartition, sawHeal)
	}
}

// TestTCPLoopbackRingConverges is the integration acceptance test: a
// ring of 5 nodes over 127.0.0.1 sockets converges from a perturbed
// start within the step budget.
func TestTCPLoopbackRingConverges(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	tr, err := NewTCPTransport(p.Procs())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{
		Proto:          p,
		Transport:      tr,
		Seed:           5,
		MaxSteps:       100_000,
		StopWhenStable: true,
	}, sim.Config{2, 0, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("TCP ring did not converge: final %v after %d moves", res.Final, res.Moves)
	}
	if res.Transport != "tcp" {
		t.Fatalf("transport reported as %q", res.Transport)
	}
	if len(res.Stabilizations) == 0 {
		t.Fatal("no stabilization recorded for a perturbed start")
	}
	// Ring traffic flowed on neighbor links.
	if len(res.Links) == 0 {
		t.Fatal("no link statistics recorded")
	}
}

// TestTCPRingWithFault injects a register corruption into a ring of 3
// nodes mid-run and expects recovery.
func TestTCPRingWithFault(t *testing.T) {
	p := newProto("dijkstra3", 3, 0)
	tr, err := NewTCPTransport(p.Procs())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sched, err := ParseSchedule("corrupt@20:node=1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{
		Proto:          p,
		Transport:      tr,
		Seed:           8,
		MaxSteps:       100_000,
		Schedule:       sched,
		StopWhenStable: true,
	}, sim.Config{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("TCP ring did not recover: final %v", res.Final)
	}
	sawFault := false
	for _, ev := range res.Events {
		if ev.Kind == "fault" {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("fault event missing from stream")
	}
}

// TestTCPRedialBackoffResets: the dial backoff is per-outage, not
// per-lifetime. After a successful reconnect the failure counter is
// forgotten, so the next outage starts backing off from the base window
// again instead of inheriting the previous outage's escalation.
func TestTCPRedialBackoffResets(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	failsTo := func(to int) int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if b := tr.backoff[to]; b != nil {
			return b.fails
		}
		return 0
	}
	drain := func(node int) {
		for {
			select {
			case <-tr.Recv(node):
				continue
			default:
			}
			break
		}
	}

	// Establish the route, then take the peer down and let failed dials
	// escalate the backoff well past the base window.
	sendUntilDelivered(t, tr, Message{From: 0, To: 1, Val: 1}, 5*time.Second)
	if err := tr.StopNode(1); err != nil {
		t.Fatal(err)
	}
	for stop := time.After(10 * time.Second); failsTo(1) < 3; {
		_ = tr.Send(Message{From: 0, To: 1, Val: 2})
		select {
		case <-stop:
			t.Fatalf("backoff never escalated: fails=%d", failsTo(1))
		case <-time.After(2 * time.Millisecond):
		}
	}
	drain(1)

	// Reconnect. Delivery resuming means a dial succeeded, which must
	// clear the failure history entirely.
	if err := tr.StartNode(1); err != nil {
		t.Fatal(err)
	}
	sendUntilDelivered(t, tr, Message{From: 0, To: 1, Val: 3}, 5*time.Second)
	if n := failsTo(1); n != 0 {
		t.Fatalf("backoff state survived a successful reconnect: fails=%d", n)
	}

	// Second outage: the first failed dial must register as failure #1
	// (base window), not as a continuation of the previous outage.
	if err := tr.StopNode(1); err != nil {
		t.Fatal(err)
	}
	for stop := time.After(10 * time.Second); failsTo(1) == 0; {
		_ = tr.Send(Message{From: 0, To: 1, Val: 4})
		select {
		case <-stop:
			t.Fatal("second outage never produced a failed dial")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if n := failsTo(1); n != 1 {
		t.Fatalf("second outage started at fails=%d, want 1 (reset to base)", n)
	}
}
