package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Event is one structured convergence event from the online Monitor.
// The stream is the runtime's observable story of a run: faults as
// they are applied, legitimacy transitions as the global snapshot view
// crosses the legitimate region's boundary, and periodic token-count
// snapshots (tokens-over-time).
type Event struct {
	// Step is the scheduler step the event was observed at.
	Step int `json:"step"`
	// Kind is one of "start", "move", "fault", "heal", "crashed",
	// "recovered", "crashloop", "destabilized", "stabilized",
	// "snapshot", "finish".
	Kind string `json:"kind"`
	// Node is the process a move/fault targets; -1 on events that are
	// not node-specific (kept explicit so node 0 is unambiguous).
	Node int `json:"node"`
	// Rule names the guarded command behind a move event.
	Rule string `json:"rule,omitempty"`
	// Fault renders the applied fault in schedule syntax.
	Fault string `json:"fault,omitempty"`
	// Tokens is the privilege count of the monitor's view.
	Tokens int `json:"tokens"`
	// Config is the monitor's view, included on start / snapshot /
	// stabilized / finish events.
	Config []int `json:"config,omitempty"`
	// After is the number of steps between losing and regaining
	// legitimacy (stabilized events only).
	After int `json:"after,omitempty"`
	// From names the recovery source on recovered events: "snapshot"
	// when the persisted state validated, "arbitrary" when it did not
	// and the node resumed from an arbitrary register value.
	From string `json:"from,omitempty"`
}

// Stabilization records one convergence episode: the view left the
// legitimate region at BrokenAt (0 for a perturbed start) and returned
// to it at StableAt.
type Stabilization struct {
	BrokenAt int `json:"broken_at"`
	StableAt int `json:"stable_at"`
	Steps    int `json:"steps"`
}

// Monitor watches a cluster run online. It maintains a global snapshot
// view of the true register values (fed by the engines from move
// reports and applied state faults — not from the lossy messages), and
// emits structured convergence events.
//
// Monitor is not goroutine-safe; the stepped engine calls it from the
// scheduler loop and the free-running engine from its single collector
// goroutine.
type Monitor struct {
	proto       *sim.Protocol
	view        sim.Config
	tokens      int // the view's token count
	legit       bool
	brokenAt    int
	crashed     map[int]bool
	events      []Event
	stabs       []Stabilization
	recordMoves bool
}

// newMonitor starts monitoring from the initial configuration,
// emitting the "start" event.
func newMonitor(p *sim.Protocol, initial sim.Config, recordMoves bool) *Monitor {
	m := &Monitor{proto: p, view: initial.Clone(), crashed: make(map[int]bool), recordMoves: recordMoves}
	m.countTokens()
	m.legit = m.tokens == 1
	m.emit(Event{Step: 0, Kind: KindStart, Node: -1, Config: m.view.Clone()})
	return m
}

// emit appends an event, with the view's token count.
func (m *Monitor) emit(ev Event) {
	ev.Tokens = m.tokens
	m.events = append(m.events, ev)
}

// countTokens counts the current view's tokens.
func (m *Monitor) countTokens() {
	m.tokens = sim.TokenCount(m.proto, m.view)
}

// checkTransition emits destabilized/stabilized events when the view
// crosses the legitimacy boundary. A ring with a crashed node is never
// legitimate — a dead process holds no register and serves no
// privilege — so a stabilization that spans a crash includes the full
// downtime (backoff, restart, and state replay) in its step count.
func (m *Monitor) checkTransition(step int) {
	now := m.tokens == 1 && len(m.crashed) == 0
	switch {
	case now && !m.legit:
		m.legit = true
		stab := Stabilization{BrokenAt: m.brokenAt, StableAt: step, Steps: step - m.brokenAt}
		m.stabs = append(m.stabs, stab)
		m.emit(Event{Step: step, Kind: KindStabilized, Node: -1, Config: m.view.Clone(), After: stab.Steps})
	case !now && m.legit:
		m.legit = false
		m.brokenAt = step
		m.emit(Event{Step: step, Kind: KindDestabilized, Node: -1})
	}
}

// ObserveMove folds one executed move into the view.
func (m *Monitor) ObserveMove(step, node int, rule string, val int) {
	m.view[node] = val
	m.countTokens()
	if m.recordMoves {
		m.emit(Event{Step: step, Kind: KindMove, Node: node, Rule: rule})
	}
	m.checkTransition(step)
}

// ObserveFault records an applied fault. A state fault writes the view:
// a corrupt writes f.Val, which the engine has resolved, and a restart
// the boot value 0. Link and stall faults leave the view untouched.
func (m *Monitor) ObserveFault(step int, f Fault) {
	if f.Kind == FaultRestart {
		f.Val = 0
	}
	if (f.Kind == FaultCorrupt || f.Kind == FaultRestart) && !m.crashed[f.Node] { // state faults on a dead process hit nothing
		m.view[f.Node] = f.Val
		m.countTokens()
	}
	m.emit(Event{Step: step, Kind: KindFault, Node: f.Node, Fault: f.String()})
	m.checkTransition(step)
}

// ObserveHeal records the expiry of a partition or isolation: the cut
// is gone and messages flow again. The view is untouched — healing
// restores communication, not state.
func (m *Monitor) ObserveHeal(step int, f Fault) {
	m.emit(Event{Step: step, Kind: KindHeal, Node: healNode(f), Fault: f.String()})
}

// healNode mirrors the fault event's node attribution: isolate names
// its node, a partition is not node-specific.
func healNode(f Fault) int {
	if f.Kind == FaultIsolate {
		return f.Node
	}
	return -1
}

// ObserveCrash records a node crash. The node joins the crashed set,
// which forces the view illegitimate until every node is back up.
func (m *Monitor) ObserveCrash(step int, f Fault) {
	m.crashed[f.Node] = true
	m.emit(Event{Step: step, Kind: KindCrashed, Node: f.Node, Fault: f.String()})
	m.checkTransition(step)
}

// ObserveRecovered records a supervised restart: the node is back up
// with register val, recovered From "snapshot" (persisted state
// validated) or "arbitrary" (validation failed; the restart is an
// in-model transient perturbation the protocol must converge from).
func (m *Monitor) ObserveRecovered(step, node, val int, from string) {
	delete(m.crashed, node)
	m.view[node] = val
	m.countTokens()
	m.emit(Event{Step: step, Kind: KindRecovered, Node: node, From: from})
	m.checkTransition(step)
}

// ObserveCrashLoop flags a node crashing repeatedly within the
// supervisor's detection window.
func (m *Monitor) ObserveCrashLoop(step, node, count int) {
	m.emit(Event{Step: step, Kind: KindCrashLoop, Node: node,
		Fault: fmt.Sprintf("%d crashes within %d steps", count, crashLoopWindow)})
}

// Snapshot emits a periodic tokens-over-time event.
func (m *Monitor) Snapshot(step int) {
	m.emit(Event{Step: step, Kind: KindSnapshot, Node: -1, Config: m.view.Clone()})
}

// Finish closes the stream.
func (m *Monitor) Finish(step int) {
	m.emit(Event{Step: step, Kind: KindFinish, Node: -1, Config: m.view.Clone()})
}

// Legitimate reports whether the current view is in the legitimate
// region.
func (m *Monitor) Legitimate() bool { return m.legit }

// Events returns the event stream recorded so far.
func (m *Monitor) Events() []Event { return m.events }

// Stabilizations returns the completed convergence episodes.
func (m *Monitor) Stabilizations() []Stabilization { return m.stabs }

// View returns a copy of the monitor's global snapshot view.
func (m *Monitor) View() sim.Config { return m.view.Clone() }
