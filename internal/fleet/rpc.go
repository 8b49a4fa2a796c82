package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Replica-to-replica RPC: one length-prefixed JSON frame per request
// and one per reply, over pooled persistent TCP connections — the
// cluster runtime's wire discipline (cluster.WriteFrame/ReadFrame)
// carrying fleet operations instead of ring registers. Five ops:
//
//	forward  run a routed check on its owner, preserving X-Request-Id
//	digest   anti-entropy: here are my cache keys; send what I lack
//	journal  anti-entropy: send your verdict events above my cursor
//	ping     heartbeat; the reply carries the peer's readiness
//	leave    graceful departure; the receiver drops the sender now
//
// Like the ring transport, a malformed or oversized frame costs the
// connection, never a wedged replica; a failed call costs the request
// a fallback (local compute), never a 5xx.

// maxRPCFrameBytes bounds one fleet frame. Digest key lists and pulled
// entry batches are far larger than ring state messages, so the bound
// is generous — but still a bound: a hostile peer cannot make a
// replica buffer unbounded bytes.
const maxRPCFrameBytes = 8 << 20

// rpcRequest is the request frame.
type rpcRequest struct {
	Op   string `json:"op"`
	From string `json:"from,omitempty"`
	// Forward fields.
	ID        string `json:"id,omitempty"`   // original X-Request-Id
	Path      string `json:"path,omitempty"` // original URL path
	Body      []byte `json:"body,omitempty"` // original request body
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Digest fields: the keys the sender already holds.
	Keys []string `json:"keys,omitempty"`
	// Journal field: the sender's cursor into the receiver's journal.
	Since uint64 `json:"since,omitempty"`
}

// rpcReply is the reply frame.
type rpcReply struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// Forward reply.
	Status int    `json:"status,omitempty"`
	Body   []byte `json:"body,omitempty"` // forward: response body; digest: framed entries
	// Ping reply.
	Ready bool `json:"ready,omitempty"`
	// Digest reply: how many entries the body carries.
	Entries int `json:"entries,omitempty"`
	// Journal reply: the cursor the requester should present next time.
	Next uint64 `json:"next,omitempty"`
	// Hole marks a journal reply whose Since cursor fell below the
	// peer's compaction horizon: the requested suffix no longer exists,
	// Next is the horizon, and the requester must digest-sync before
	// resuming incremental pulls.
	Hole bool `json:"hole,omitempty"`
	// BudgetExhausted marks a forward the owner refused because the
	// request's remaining deadline budget was too small to be worth
	// computing against; the requester spends what is left locally.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// maxReplyEntries bounds the Entries a digest or journal reply may
// declare. The real ceiling is maxPullPerRound (256);
// anything near a million entries in one round is a hostile peer.
const maxReplyEntries = 1 << 20

// validateReply range-checks a reply's declared fields against its
// request. roundTrip trusts the frame codec for shape; this is the
// semantic tier — a well-framed reply whose fields cannot be honest
// (status outside HTTP, negative entry counts, a regressing journal
// cursor) costs the connection and counts as a breaker failure, never
// a wedged caller downstream.
func validateReply(req rpcRequest, reply rpcReply) error {
	if len(reply.Body) > maxRPCFrameBytes {
		return fmt.Errorf("fleet: reply body %d bytes exceeds frame bound %d", len(reply.Body), maxRPCFrameBytes)
	}
	if !reply.OK {
		return nil
	}
	switch req.Op {
	case "forward":
		if reply.BudgetExhausted {
			return nil
		}
		if reply.Status < 100 || reply.Status > 599 {
			return fmt.Errorf("fleet: forward reply status %d out of range", reply.Status)
		}
		if len(reply.Body) > 0 && !json.Valid(reply.Body) {
			return fmt.Errorf("fleet: forward reply body is not valid JSON")
		}
	case "digest", "journal":
		if reply.Entries < 0 || reply.Entries > maxReplyEntries {
			return fmt.Errorf("fleet: %s reply declares %d entries", req.Op, reply.Entries)
		}
		if req.Op == "journal" && !reply.Hole && reply.Next < req.Since {
			return fmt.Errorf("fleet: journal reply cursor regressed (next %d < since %d)", reply.Next, req.Since)
		}
	}
	return nil
}

// peerClient pools connections to one peer. Calls are sequential per
// connection (one frame out, one frame in); concurrent calls draw
// distinct connections from the pool or dial fresh ones.
type peerClient struct {
	addr string

	mu   sync.Mutex
	idle []net.Conn
}

// maxIdleConns bounds the per-peer pool; beyond it, finished
// connections close instead of parking.
const maxIdleConns = 4

func newPeerClient(addr string) *peerClient { return &peerClient{addr: addr} }

func (p *peerClient) get(dialTimeout time.Duration) (net.Conn, bool, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	return c, false, err
}

func (p *peerClient) put(c net.Conn) {
	p.mu.Lock()
	if len(p.idle) < maxIdleConns {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	_ = c.Close()
}

// closeIdle drops every pooled connection (peer crashed or left).
func (p *peerClient) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
}

// roundTrip performs one call on one connection under deadline.
func roundTrip(c net.Conn, req rpcRequest, deadline time.Time) (rpcReply, error) {
	var reply rpcReply
	if err := c.SetDeadline(deadline); err != nil {
		return reply, err
	}
	if err := cluster.WriteFrame(c, req); err != nil {
		return reply, err
	}
	if err := cluster.ReadFrame(c, maxRPCFrameBytes, &reply); err != nil {
		return reply, err
	}
	_ = c.SetDeadline(time.Time{})
	return reply, nil
}

// call runs one RPC with a bounded timeout. A call that fails on a
// pooled connection retries once on a fresh dial — pooled connections
// go stale when the peer restarts, and the retry is what makes the
// path self-healing rather than sticky-broken. A reply that fails
// validation does NOT retry: garbage is a sick peer, not a stale
// socket, and the failure must surface to the breaker.
func (p *peerClient) call(req rpcRequest, timeout time.Duration) (rpcReply, error) {
	deadline := time.Now().Add(timeout) //gcvet:detrand-ok real I/O deadline on a live TCP connection
	c, pooled, err := p.get(timeout)
	if err != nil {
		return rpcReply{}, err
	}
	reply, err := roundTrip(c, req, deadline)
	if err == nil {
		if verr := validateReply(req, reply); verr != nil {
			_ = c.Close()
			return rpcReply{}, verr
		}
		p.put(c)
		return reply, nil
	}
	_ = c.Close()
	if !pooled {
		return rpcReply{}, err
	}
	// Stale pooled connection: one fresh attempt.
	//gcvet:detrand-ok real I/O deadline on a live TCP connection
	c2, err2 := net.DialTimeout("tcp", p.addr, time.Until(deadline))
	if err2 != nil {
		return rpcReply{}, err2
	}
	reply, err = roundTrip(c2, req, deadline)
	if err != nil {
		_ = c2.Close()
		return rpcReply{}, err
	}
	if verr := validateReply(req, reply); verr != nil {
		_ = c2.Close()
		return rpcReply{}, verr
	}
	p.put(c2)
	return reply, nil
}

// serveRPC accepts connections on the replica's RPC listener. It runs
// once per incarnation: a crash closes the listener and every tracked
// connection, so peers see real connection failures, not polite
// refusals.
func (rp *Replica) serveRPC(ln net.Listener, stop chan struct{}) {
	defer rp.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !rp.trackConn(c) {
			_ = c.Close()
			return
		}
		rp.wg.Add(1)
		go rp.serveRPCConn(c, stop)
	}
}

// serveRPCConn handles one inbound connection: a loop of frame in,
// frame out. Any framing error closes the connection.
func (rp *Replica) serveRPCConn(c net.Conn, stop chan struct{}) {
	defer rp.wg.Done()
	defer rp.untrackConn(c)
	defer func() { _ = c.Close() }()
	for {
		var req rpcRequest
		if err := cluster.ReadFrame(c, maxRPCFrameBytes, &req); err != nil {
			return
		}
		reply := rp.handleRPC(req)
		if err := cluster.WriteFrame(c, reply); err != nil {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// handleRPC dispatches one fleet operation.
func (rp *Replica) handleRPC(req rpcRequest) rpcReply {
	switch req.Op {
	case "ping":
		rp.sawPeer(req.From)
		return rpcReply{OK: true, Ready: rp.Ready()}
	case "leave":
		rp.peerLeft(req.From)
		return rpcReply{OK: true}
	}
	// Gray-failure injection, data-plane ops only: a slow or hostile
	// replica keeps answering pings promptly — the failure detector
	// stays green while forwards and anti-entropy drag or rot, which is
	// exactly the regime the breaker layer exists for.
	if d := rp.slowDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if rp.garbage.Load() {
		return garbageRPCReply(req)
	}
	switch req.Op {
	case "forward":
		return rp.handleForward(req)
	case "digest":
		return rp.handleDigest(req)
	case "journal":
		return rp.handleJournalSuffix(req)
	}
	return rpcReply{Err: fmt.Sprintf("unknown op %q", req.Op)}
}

// garbageRPCReply builds a well-framed but semantically hostile reply
// for the garbage-reply fault: every field a validateReply-less client
// would trust is out of range or truncated.
func garbageRPCReply(req rpcRequest) rpcReply {
	switch req.Op {
	case "forward":
		return rpcReply{OK: true, Status: 999, Body: []byte(`{"truncated`)}
	case "digest":
		return rpcReply{OK: true, Entries: -7}
	case "journal":
		return rpcReply{OK: true, Entries: maxReplyEntries + 1}
	}
	return rpcReply{OK: true, Status: -1}
}
