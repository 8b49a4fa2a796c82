package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sim"
)

// FaultKind enumerates the runtime's fault model — the paper's
// transient faults made concrete for a message-passing cluster.
type FaultKind string

const (
	// FaultCorrupt overwrites a node's register with an arbitrary
	// in-domain value (transient state corruption).
	FaultCorrupt FaultKind = "corrupt"
	// FaultDrop discards the next Count messages on one link.
	FaultDrop FaultKind = "drop"
	// FaultDup duplicates the next Count messages on one link.
	FaultDup FaultKind = "dup"
	// FaultDelay holds the next message on one link for Count steps
	// before releasing it (possibly after newer state has overtaken it).
	FaultDelay FaultKind = "delay"
	// FaultStall removes a node from scheduling for Count steps.
	FaultStall FaultKind = "stall"
	// FaultRestart resets a node: register to zero, neighbor views
	// forgotten, probes sent to refill them.
	FaultRestart FaultKind = "restart"
	// FaultCrash kills a node's process: it stops moving and loses its
	// in-memory state. The supervisor restarts it after an exponential
	// backoff (with seeded jitter), recovering the register from the
	// snapshot store when the snapshot validates and from arbitrary
	// state when it does not — the paper's in-model perturbation.
	FaultCrash FaultKind = "crash"
	// FaultPartition severs every link between node sets A and B for
	// Count steps: messages crossing the cut are dropped in both
	// directions. When the partition heals, the engine triggers an
	// anti-entropy refresh so stale neighbor views cannot wedge the ring.
	FaultPartition FaultKind = "partition"
	// FaultIsolate severs every link touching one node for Count steps —
	// the degenerate partition {Node} | rest.
	FaultIsolate FaultKind = "isolate"

	// The gray-failure kinds below target live checkd fleets only
	// (chaos.Template.FleetSchedule); the simulated cluster engine and
	// /v1/chaos reject them — a stepped ring model has no data plane
	// to degrade separately from its control plane.

	// FaultSlowPeer injects per-operation latency into one replica's
	// data-plane RPCs (forwards, anti-entropy) while its heartbeats
	// stay fast — Huang et al.'s gray failure: the failure detector
	// stays green while the work drags.
	FaultSlowPeer FaultKind = "slow-peer"
	// FaultAsymPartition severs only the A→B direction of a cut: A
	// cannot reach B, but B still reaches A, so the two sides' views
	// of each other diverge.
	FaultAsymPartition FaultKind = "asym-partition"
	// FaultGarbageReply makes one replica answer data-plane RPCs with
	// well-framed but semantically hostile replies (out-of-range
	// status, negative entry counts, regressing cursors).
	FaultGarbageReply FaultKind = "garbage-reply"
)

// Fault is one scheduled fault. Step is the scheduler step (stepped
// engine: tick; free-running engine: global move count) at which it
// fires or arms.
type Fault struct {
	Kind FaultKind `json:"kind"`
	Step int       `json:"step"`
	// Node targets corrupt | stall | restart.
	Node int `json:"node,omitempty"`
	// Val is the value corrupt writes; -1 means a seeded-random
	// in-domain value.
	Val int `json:"val,omitempty"`
	// From and To name the link for drop | dup | delay.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Count is the number of messages affected (drop, dup), or the
	// number of steps (stall, delay hold time, partition and isolate
	// duration).
	Count int `json:"count,omitempty"`
	// A and B name the two node sets a partition severs.
	A []int `json:"a,omitempty"`
	B []int `json:"b,omitempty"`
}

// nodeList renders a partition side in schedule syntax ("0+1+2").
func nodeList(nodes []int) string {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, "+")
}

// String renders the fault in schedule syntax.
func (f Fault) String() string {
	switch f.Kind {
	case FaultCorrupt:
		return fmt.Sprintf("corrupt@%d:node=%d,val=%d", f.Step, f.Node, f.Val)
	case FaultStall:
		return fmt.Sprintf("stall@%d:node=%d,count=%d", f.Step, f.Node, f.Count)
	case FaultRestart:
		return fmt.Sprintf("restart@%d:node=%d", f.Step, f.Node)
	case FaultCrash:
		return fmt.Sprintf("crash@%d:node=%d", f.Step, f.Node)
	case FaultPartition:
		return fmt.Sprintf("partition@%d:cut=%s|%s,count=%d", f.Step, nodeList(f.A), nodeList(f.B), f.Count)
	case FaultIsolate:
		return fmt.Sprintf("isolate@%d:node=%d,count=%d", f.Step, f.Node, f.Count)
	default:
		return fmt.Sprintf("%s@%d:link=%d>%d,count=%d", f.Kind, f.Step, f.From, f.To, f.Count)
	}
}

// ParseSchedule parses the CLI/service fault-schedule syntax: a
// semicolon-separated list of `kind@step:key=val,...` entries, e.g.
//
//	corrupt@120:node=2,val=1
//	drop@50:link=1>2,count=3
//	delay@60:link=2>3,count=10
//	stall@100:node=3,count=40
//	restart@150:node=4
//	partition@200:cut=0+1|2+3+4,count=50
//	isolate@260:node=2,count=30
//
// corrupt without val corrupts to a seeded-random in-domain value.
// The result is sorted by Step (stable, preserving entry order within
// a step).
func ParseSchedule(s string) ([]Fault, error) {
	var out []Fault
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, params, _ := strings.Cut(part, ":")
		kindStr, stepStr, ok := strings.Cut(head, "@")
		if !ok {
			return nil, fmt.Errorf("cluster: fault %q: want kind@step:key=val,...", part)
		}
		step, err := strconv.Atoi(stepStr)
		if err != nil || step < 0 {
			return nil, fmt.Errorf("cluster: fault %q: bad step %q", part, stepStr)
		}
		f := Fault{Kind: FaultKind(kindStr), Step: step, Node: -1, Val: -1, From: -1, To: -1, Count: 1}
		if params != "" {
			for _, kv := range strings.Split(params, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("cluster: fault %q: bad parameter %q", part, kv)
				}
				switch key {
				case "node", "val", "count":
					n, err := strconv.Atoi(val)
					if err != nil {
						return nil, fmt.Errorf("cluster: fault %q: %s=%q is not an integer", part, key, val)
					}
					switch key {
					case "node":
						f.Node = n
					case "val":
						f.Val = n
					case "count":
						f.Count = n
					}
				case "link":
					fromStr, toStr, ok := strings.Cut(val, ">")
					if !ok {
						return nil, fmt.Errorf("cluster: fault %q: link=%q wants from>to", part, val)
					}
					from, err1 := strconv.Atoi(fromStr)
					to, err2 := strconv.Atoi(toStr)
					if err1 != nil || err2 != nil {
						return nil, fmt.Errorf("cluster: fault %q: link=%q wants integer endpoints", part, val)
					}
					f.From, f.To = from, to
				case "cut":
					aStr, bStr, ok := strings.Cut(val, "|")
					if !ok {
						return nil, fmt.Errorf("cluster: fault %q: cut=%q wants a|b node sets", part, val)
					}
					a, err1 := parseNodeList(aStr)
					b, err2 := parseNodeList(bStr)
					if err1 != nil || err2 != nil {
						return nil, fmt.Errorf("cluster: fault %q: cut=%q wants +-separated integer node sets", part, val)
					}
					f.A, f.B = a, b
				default:
					return nil, fmt.Errorf("cluster: fault %q: unknown parameter %q", part, key)
				}
			}
		}
		switch f.Kind {
		case FaultCorrupt, FaultStall, FaultRestart, FaultCrash, FaultIsolate:
			if f.Node < 0 {
				return nil, fmt.Errorf("cluster: fault %q: %s needs node=<i>", part, f.Kind)
			}
		case FaultDrop, FaultDup, FaultDelay:
			if f.From < 0 || f.To < 0 {
				return nil, fmt.Errorf("cluster: fault %q: %s needs link=<from>><to>", part, f.Kind)
			}
		case FaultPartition:
			if len(f.A) == 0 || len(f.B) == 0 {
				return nil, fmt.Errorf("cluster: fault %q: partition needs cut=<a>|<b>", part)
			}
		default:
			return nil, fmt.Errorf("cluster: fault %q: unknown kind %q (want corrupt|drop|dup|delay|stall|restart|crash|partition|isolate)", part, kindStr)
		}
		if f.Count < 1 {
			return nil, fmt.Errorf("cluster: fault %q: count must be ≥ 1", part)
		}
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out, nil
}

// parseNodeList parses one side of a partition cut ("0+1+2").
func parseNodeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, "+") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// ValidateSchedule checks every fault's targets against a protocol:
// node indices in range, corrupt values in the target's domain.
func ValidateSchedule(p *sim.Protocol, schedule []Fault) error {
	procs := p.Procs()
	for _, f := range schedule {
		switch f.Kind {
		case FaultCorrupt, FaultStall, FaultRestart, FaultCrash:
			if f.Node < 0 || f.Node >= procs {
				return fmt.Errorf("cluster: %s: node %d outside [0,%d)", f, f.Node, procs)
			}
			if f.Kind == FaultCorrupt && f.Val >= p.Domain(f.Node) {
				return fmt.Errorf("cluster: %s: value outside node %d's domain [0,%d)", f, f.Node, p.Domain(f.Node))
			}
		case FaultDrop, FaultDup, FaultDelay:
			if f.From < 0 || f.From >= procs || f.To < 0 || f.To >= procs {
				return fmt.Errorf("cluster: %s: link outside [0,%d)", f, procs)
			}
		case FaultIsolate:
			if f.Node < 0 || f.Node >= procs {
				return fmt.Errorf("cluster: %s: node %d outside [0,%d)", f, f.Node, procs)
			}
		case FaultPartition:
			if len(f.A) == 0 || len(f.B) == 0 {
				return fmt.Errorf("cluster: %s: both partition sides must be non-empty", f)
			}
			seen := make(map[int]string, len(f.A)+len(f.B))
			for side, nodes := range map[string][]int{"a": f.A, "b": f.B} {
				for _, n := range nodes {
					if n < 0 || n >= procs {
						return fmt.Errorf("cluster: %s: node %d outside [0,%d)", f, n, procs)
					}
					if prev, dup := seen[n]; dup {
						if prev != side {
							return fmt.Errorf("cluster: %s: node %d appears on both sides of the cut", f, n)
						}
						return fmt.Errorf("cluster: %s: node %d repeated in the cut", f, n)
					}
					seen[n] = side
				}
			}
		}
	}
	return nil
}

// LinkStats counts message-level activity on one directed link,
// including what the fault layer did to it.
type LinkStats struct {
	From       int `json:"from"`
	To         int `json:"to"`
	Sent       int `json:"sent"`
	Dropped    int `json:"dropped,omitempty"`
	Duplicated int `json:"duplicated,omitempty"`
	Delayed    int `json:"delayed,omitempty"`
}

// parked is a delayed message awaiting release.
type parked struct {
	m         Message
	releaseAt int
}

// cut is one active partition or isolation: messages crossing it are
// dropped until the injector's step clock reaches until.
type cut struct {
	f     Fault
	until int
	a, b  map[int]bool // partition sides; unused for isolate
}

// blocks reports whether a message from→to crosses the cut.
func (c *cut) blocks(from, to int) bool {
	if c.f.Kind == FaultIsolate {
		return from == c.f.Node || to == c.f.Node
	}
	return (c.a[from] && c.b[to]) || (c.b[from] && c.a[to])
}

func toSet(nodes []int) map[int]bool {
	s := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		s[n] = true
	}
	return s
}

// injector sits between the nodes and the real transport, applying
// armed link faults to every Send. It is itself a Transport, so nodes
// are oblivious to it. Node-level faults (corrupt, stall, restart) are
// applied by the engines, not here — they are state faults, not
// communication faults.
type injector struct {
	inner Transport

	mu     sync.Mutex
	step   int
	armed  []*Fault // link faults with remaining Count
	cuts   []*cut   // active partitions / isolations
	parked []parked
	links  map[[2]int]*LinkStats
}

func newInjector(inner Transport) *injector {
	return &injector{inner: inner, links: make(map[[2]int]*LinkStats)}
}

// Name implements Transport.
func (in *injector) Name() string { return in.inner.Name() }

// Procs implements Transport.
func (in *injector) Procs() int { return in.inner.Procs() }

// Recv implements Transport.
func (in *injector) Recv(node int) <-chan Message { return in.inner.Recv(node) }

// Close implements Transport.
func (in *injector) Close() error { return in.inner.Close() }

// arm activates one link fault (or partition/isolation cut). Engines
// call it when the schedule reaches the fault's step; cuts stay active
// for f.Count steps of the injector's clock.
func (in *injector) arm(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	switch f.Kind {
	case FaultPartition, FaultIsolate:
		c := &cut{f: f, until: in.step + f.Count}
		if f.Kind == FaultPartition {
			c.a, c.b = toSet(f.A), toSet(f.B)
		}
		in.cuts = append(in.cuts, c)
	default:
		cp := f
		in.armed = append(in.armed, &cp)
	}
}

// advance tells the injector the current scheduler step, expires healed
// cuts, and releases any delayed messages that have served their hold
// time.
func (in *injector) advance(step int) {
	in.mu.Lock()
	var due []Message
	in.step = step
	alive := in.cuts[:0]
	for _, c := range in.cuts {
		if c.until > step {
			alive = append(alive, c)
		}
	}
	in.cuts = alive
	rest := in.parked[:0]
	for _, p := range in.parked {
		if p.releaseAt <= step {
			due = append(due, p.m)
		} else {
			rest = append(rest, p)
		}
	}
	in.parked = rest
	in.mu.Unlock()
	// Deliver outside the lock: inner.Send may block briefly (TCP).
	for _, m := range due {
		_ = in.inner.Send(m)
	}
}

func (in *injector) statsFor(from, to int) *LinkStats {
	key := [2]int{from, to}
	st := in.links[key]
	if st == nil {
		st = &LinkStats{From: from, To: to}
		in.links[key] = st
	}
	return st
}

// Send implements Transport, applying active cuts first and then the
// first matching armed link fault.
func (in *injector) Send(m Message) error {
	in.mu.Lock()
	st := in.statsFor(m.From, m.To)
	st.Sent++
	for _, c := range in.cuts {
		if in.step < c.until && c.blocks(m.From, m.To) {
			st.Dropped++
			in.mu.Unlock()
			return nil
		}
	}
	var action FaultKind
	var hold int
	for i, f := range in.armed {
		if f.From != m.From || f.To != m.To || f.Count <= 0 {
			continue
		}
		action = f.Kind
		if f.Kind == FaultDelay {
			// Count is the hold time; a delay fault affects one message.
			hold = f.Count
			in.armed = append(in.armed[:i], in.armed[i+1:]...)
		} else {
			f.Count--
			if f.Count == 0 {
				in.armed = append(in.armed[:i], in.armed[i+1:]...)
			}
		}
		break
	}
	switch action {
	case FaultDrop:
		st.Dropped++
		in.mu.Unlock()
		return nil
	case FaultDelay:
		st.Delayed++
		in.parked = append(in.parked, parked{m: m, releaseAt: in.step + hold})
		in.mu.Unlock()
		return nil
	case FaultDup:
		st.Duplicated++
		in.mu.Unlock()
		if err := in.inner.Send(m); err != nil {
			return err
		}
		return in.inner.Send(m)
	default:
		in.mu.Unlock()
		return in.inner.Send(m)
	}
}

// linkStats snapshots the per-link counters, sorted by (From, To) for
// deterministic reports.
func (in *injector) linkStats() []LinkStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]LinkStats, 0, len(in.links))
	for _, st := range in.links {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
