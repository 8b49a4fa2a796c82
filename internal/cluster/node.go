package cluster

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// cmdKind enumerates the control commands an engine can send a node.
type cmdKind int

const (
	// cmdInit makes the node announce its initial register value.
	cmdInit cmdKind = iota
	// cmdStep runs one activation: drain inbox, re-announce if the
	// register changed behind the protocol's back, attempt one move.
	cmdStep
	// cmdCorrupt overwrites the register (transient state corruption).
	cmdCorrupt
	// cmdRestart resets the node to its boot state.
	cmdRestart
	// cmdStall pauses autonomous moves (free-running engine).
	cmdStall
	// cmdResume lifts a stall.
	cmdResume
	// cmdRefresh is one anti-entropy round: re-announce the register
	// unconditionally and probe both neighbors. Engines trigger it when a
	// partition heals (and optionally on a period), because messages lost
	// to a cut are never re-sent by the announce-on-change discipline.
	cmdRefresh
	// cmdCrash kills the process: it stops moving, stops speaking, and
	// loses every message delivered while down. Only cmdRestore revives
	// it.
	cmdCrash
	// cmdRestore revives a crashed process with the register value the
	// supervisor recovered (from a validated snapshot, or arbitrary when
	// validation failed). Messages queued during the downtime are
	// discarded — the crashed process never saw them.
	cmdRestore
)

// command is one control message from engine to node actor.
type command struct {
	kind  cmdKind
	val   int // cmdCorrupt: the value to write
	reply chan stepReport
}

// stepReport is the node's answer to a command.
type stepReport struct {
	Moved bool
	Rule  string
	// Val is the node's register value after the command.
	Val int
}

// moveReport is what a free-running node tells the collector after
// each executed move.
type moveReport struct {
	Node int
	Rule string
	Val  int
}

// node is one actor: a process of the ring protocol owning exactly its
// register, knowing its neighbors only through received Messages. Both
// engines use the same actor; they differ in who drives the loop.
type node struct {
	id    int
	procs int
	proto *sim.Protocol
	tr    Transport
	rng   *rand.Rand

	leftID, rightID     int
	val                 int
	leftVal, rightVal   int
	haveLeft, haveRight bool
	lastSent            int // last announced value; -1 = never announced
	seq                 int
	moves               int
	stalled             bool
	down                bool // crashed: ignores everything except cmdRestore

	cmds    chan command
	reports chan moveReport // free-running engine only
}

func newNode(id int, proto *sim.Protocol, tr Transport, seed int64, initial int) *node {
	procs := proto.Procs()
	return &node{
		id:       id,
		procs:    procs,
		proto:    proto,
		tr:       tr,
		rng:      rand.New(rand.NewSource(seed)),
		leftID:   (id - 1 + procs) % procs,
		rightID:  (id + 1) % procs,
		val:      initial,
		lastSent: -1,
		cmds:     make(chan command, 16),
	}
}

// sendState announces the node's current value to one neighbor.
func (n *node) sendState(to int) {
	n.seq++
	_ = n.tr.Send(Message{From: n.id, To: to, Val: n.val, Seq: n.seq})
}

// announce tells both neighbors the current value, if it changed since
// the last announcement. Corruption changes the register without a
// move, so this is checked on every activation, not only after moves —
// the register *is* the communicated state.
func (n *node) announce() {
	if n.val == n.lastSent {
		return
	}
	n.lastSent = n.val
	n.sendState(n.leftID)
	n.sendState(n.rightID)
}

// probe asks both neighbors to re-announce; used after a restart,
// because neighbors only announce on change.
func (n *node) probe() {
	n.seq++
	_ = n.tr.Send(Message{From: n.id, To: n.leftID, Seq: n.seq, Probe: true})
	n.seq++
	_ = n.tr.Send(Message{From: n.id, To: n.rightID, Seq: n.seq, Probe: true})
}

// apply folds one received message into the neighbor views.
func (n *node) apply(m Message) {
	if m.Probe {
		n.sendState(m.From)
		return
	}
	switch m.From {
	case n.leftID:
		n.leftVal, n.haveLeft = m.Val, true
	case n.rightID:
		n.rightVal, n.haveRight = m.Val, true
	}
}

// drain applies every pending message without blocking.
func (n *node) drain() {
	for {
		select {
		case m := <-n.tr.Recv(n.id):
			n.apply(m)
		default:
			return
		}
	}
}

// drainDiscard throws away every pending message: a restoring process
// never saw what was delivered while it was down.
func (n *node) drainDiscard() {
	for {
		select {
		case <-n.tr.Recv(n.id):
		default:
			return
		}
	}
}

// tryMove attempts one protocol move against the current views.
func (n *node) tryMove() (moved bool, rule string) {
	if !n.haveLeft || !n.haveRight {
		return false, ""
	}
	moves := n.proto.Moves(n.id, n.leftVal, n.val, n.rightVal)
	if len(moves) == 0 {
		return false, ""
	}
	m := moves[n.rng.Intn(len(moves))]
	n.val = m.NewVal
	n.moves++
	n.announce()
	return true, m.Rule
}

// handle executes one engine command and returns the report.
func (n *node) handle(c command) stepReport {
	if n.down && c.kind != cmdRestore {
		return stepReport{Val: n.val}
	}
	switch c.kind {
	case cmdInit:
		n.announce()
	case cmdStep:
		n.drain()
		n.announce() // covers register corruption since the last step
		if !n.stalled {
			if moved, rule := n.tryMove(); moved {
				return stepReport{Moved: true, Rule: rule, Val: n.val}
			}
		}
	case cmdCorrupt:
		n.val = c.val
	case cmdRestart:
		n.val = 0
		n.haveLeft, n.haveRight = false, false
		n.lastSent = -1
		n.announce()
		n.probe()
	case cmdStall:
		n.stalled = true
	case cmdResume:
		n.stalled = false
	case cmdRefresh:
		n.drain()
		n.lastSent = -1
		n.announce()
		n.probe()
	case cmdCrash:
		n.down = true
	case cmdRestore:
		n.drainDiscard()
		n.val = c.val
		n.haveLeft, n.haveRight = false, false
		n.lastSent = -1
		n.down = false
		n.announce()
		n.probe()
	}
	return stepReport{Val: n.val}
}

// steppedLoop is the actor body under the deterministic engine: the
// node acts only when commanded, so the engine's seeded choices fully
// determine the run.
func (n *node) steppedLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case c, ok := <-n.cmds:
			if !ok {
				return
			}
			rep := n.handle(c)
			if c.reply != nil {
				c.reply <- rep
			}
		}
	}
}

// freeIdle is how long a free-running node sleeps when it had nothing
// to do — no pending message and no enabled move — before looking
// again. Keeps disabled nodes from spinning a core each.
const freeIdle = 100 * time.Microsecond

// freeLoop is the actor body under the free-running engine: the node
// drives itself, interleaving message handling, engine commands, and
// autonomous moves. Every executed move is reported to the collector.
func (n *node) freeLoop(ctx context.Context) {
	n.announce()
	for {
		select {
		case <-ctx.Done():
			return
		case c, ok := <-n.cmds:
			if !ok {
				return
			}
			rep := n.handle(c)
			if c.reply != nil {
				select {
				case c.reply <- rep:
				case <-ctx.Done():
					return
				}
			}
		case m := <-n.tr.Recv(n.id):
			if !n.down {
				n.apply(m)
			}
		default:
			if n.down {
				time.Sleep(freeIdle)
				continue
			}
			n.announce() // a corrupt command may have changed the register
			moved := false
			var rule string
			if !n.stalled {
				moved, rule = n.tryMove()
			}
			if moved {
				select {
				case n.reports <- moveReport{Node: n.id, Rule: rule, Val: n.val}:
				case <-ctx.Done():
					return
				}
			} else {
				time.Sleep(freeIdle)
			}
		}
	}
}
