// Package sim is the experimental testbed: a ring simulator that executes
// the derived protocols under pluggable daemons (schedulers) with
// transient-fault injection, and measures convergence. Where the core
// package *decides* stabilization by model checking, sim *exercises* it.
// It runs the GCL ring templates the checker checks, so both work from
// one definition of each protocol.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/gcl"
	"repro/internal/ring"
	"repro/internal/system"
)

// maxMemo bounds a process's memo of gcl.Eval, a table over the registers
// its actions read: every 3- and 4-state process (at most 64 points)
// fits, and so does a K-state process up to K = 64.
const maxMemo = 4096

// layoutFrom is the ring size a larger ring is laid out from: a bottom,
// the process beside it, a middle process, the process beside the top,
// and the top. Every ring template gives its middle processes the same
// actions, so the middle processes of any ring act as the template's
// does, and building a ring costs the same at any size.
const layoutFrom = 5

// Protocol is a ring protocol compiled from a GCL ring template.
// Processes are 0..P−1 on a ring. A process is the union of the
// variables its actions write, and its register packs them mixed-radix
// in declaration order, the first declared least significant; processes
// are ordered by the first variable each owns. Process i's actions read
// only its own register and its left ((i−1) mod P) and right
// ((i+1) mod P) neighbors'. A process is privileged iff one of its
// guards holds, τ included, or a predicate its family adds holds. A ring
// of more than layoutFrom processes runs the processes of its template
// compiled at layoutFrom, the middle one repeated.
type Protocol struct {
	name   string
	prog   *gcl.Program
	tmpl   []process      // the program's processes
	procs  []*process     // the ring's processes, each one of tmpl
	index  map[string]int // variable index by name
	owner  []int          // the template process owning each variable
	weight []int          // each variable's weight in its owner's register
}

type process struct {
	nb      [3]int   // template indices of its left neighbor, itself and its right neighbor
	vars    []int    // owned variables, in declaration order
	domain  int      // register domain size
	actions []action // in declaration order
	extra   gcl.Expr // the family's added privilege predicate, or nil
	stride  [3]int   // memo weight of the left, own and right registers; 0 if unread
	memo    []cell   // nil past maxMemo points
}

type action struct {
	rule string // the action's name without its trailing process index
	decl *gcl.ActionDecl
}

// cell is what a process can do in one neighborhood.
type cell struct {
	moves      []Move
	privileged bool
}

// Move is one enabled state change at a process.
type Move struct {
	// Proc is the process the move belongs to (filled by EnabledMoves).
	Proc int
	// Rule names the guarded command that produced the move.
	Rule string
	// NewVal is the value written to the process's register.
	NewVal int
}

// Config is a ring configuration: one register value per process.
type Config []int

// Clone copies the configuration.
func (c Config) Clone() Config { return slices.Clone(c) }

// ErrUnknownFamily is wrapped by NewProtocol's error for a family name
// it does not know.
var ErrUnknownFamily = errors.New("unknown family")

// families maps each family to its ring template for top index n (and
// modulus k), and to the privilege predicate its top adds, if any.
var families = map[string]struct {
	template func(n, k int) string
	top      func(n int) string
}{
	"dijkstra3": {
		template: func(n, _ int) string { return ring.Dijkstra3GCL(n) },
		// Dijkstra's top is also privileged on ↑t.N, which its guard
		// does not test.
		top: func(n int) string { return fmt.Sprintf("c%d == (c%d + 1) %% 3", n-1, n) },
	},
	"dijkstra4": {template: func(n, _ int) string { return ring.Dijkstra4GCL(n) }},
	"kstate":    {template: ring.KStateGCL},
	"newthree":  {template: func(n, _ int) string { return ring.NewThreeGCL(n) }},
}

// CheckFamily returns the error NewProtocol would for these parameters,
// without building the protocol.
func CheckFamily(family string, p, k int) error {
	if p < 3 {
		return fmt.Errorf("%s needs at least 3 processes, got %d", family, p)
	}
	if _, known := families[family]; !known {
		return fmt.Errorf("%w %q (want dijkstra3 | dijkstra4 | kstate | newthree)", ErrUnknownFamily, family)
	}
	if family == "kstate" && k < 2 {
		return fmt.Errorf("kstate needs k ≥ 2, got %d", k)
	}
	return nil
}

// NewProtocol builds a protocol family by name with p processes from its
// ring template, compiled at p processes or, past layoutFrom, at
// layoutFrom and laid out on p; k is the counter modulus and matters only
// to kstate. Out-of-range parameters are an error, not a panic, so
// callers can pass user input straight through.
func NewProtocol(family string, p, k int) (*Protocol, error) {
	if err := CheckFamily(family, p, k); err != nil {
		return nil, err
	}
	f, name, top, n := families[family], fmt.Sprintf("%s(P=%d)", family, p), "", min(p, layoutFrom)-1
	if family == "kstate" {
		name = fmt.Sprintf("kstate(P=%d,K=%d)", p, k)
	}
	if f.top != nil {
		top = f.top(n)
	}
	proto, err := compile(name, f.template(n, k), top)
	if err == nil && p > layoutFrom {
		proto.stretch(p)
	}
	return proto, err
}

// stretch lays a protocol compiled at layoutFrom processes out on a ring
// of procs ≥ layoutFrom: the two processes at each end are the
// template's, and every process between them is the template's middle
// process 2.
func (p *Protocol) stretch(procs int) {
	ring := make([]*process, procs)
	for i := range ring {
		ring[i] = p.procs[max(min(i, 2), i-procs+layoutFrom)]
	}
	p.procs = ring
}

// compile builds the protocol of a GCL ring program; top, unless empty,
// is a predicate over its variables that also makes the top privileged.
func compile(name, src, top string) (*Protocol, error) {
	prog, err := gcl.Parse(src)
	if err == nil {
		err = gcl.Check(prog)
	}
	p := &Protocol{name: name, prog: prog}
	if err == nil {
		err = p.partition()
	}
	if err == nil && top != "" {
		extra := &p.tmpl[len(p.tmpl)-1].extra
		if *extra, err = gcl.ParseExpr(top); err == nil {
			err = gcl.Check(&gcl.Program{Vars: prog.Vars, Init: *extra}) // typed as an init predicate
		}
	}
	for i, n := 0, len(p.tmpl); err == nil && i < n; i++ {
		p.tmpl[i].nb = [3]int{(i + n - 1) % n, i, (i + 1) % n}
		p.procs = append(p.procs, &p.tmpl[i])
		var points int
		if points, err = p.span(i); err == nil && points <= maxMemo {
			p.tmpl[i].memo = p.fill(i, points)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", name, err)
	}
	return p, nil
}

// partition groups the variables into processes by the actions that
// write them, and hands each action to its process.
func (p *Protocol) partition() error {
	vars := p.prog.Vars
	p.index = make(map[string]int, len(vars))
	p.owner, p.weight = make([]int, len(vars)), make([]int, len(vars))
	parent := make([]int, len(vars))
	for v, d := range vars {
		p.index[d.Name], parent[v], p.owner[v] = v, v, -1
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v], v = parent[parent[v]], parent[v]
		}
		return v
	}
	for _, a := range p.prog.Actions {
		for _, as := range a.Assigns {
			parent[find(p.index[as.Name])] = find(p.index[a.Assigns[0].Name])
			p.owner[p.index[as.Name]] = 0 // written
		}
	}
	procOf := make(map[int]int, len(vars))
	for v, d := range vars {
		if p.owner[v] < 0 {
			return fmt.Errorf("variable %q is written by no action", d.Name)
		}
		i, seen := procOf[find(v)]
		if !seen {
			i, procOf[find(v)] = len(p.tmpl), len(p.tmpl)
			p.tmpl = append(p.tmpl, process{domain: 1})
		}
		pr := &p.tmpl[i]
		p.owner[v], p.weight[v] = i, pr.domain
		pr.vars = append(pr.vars, v)
		pr.domain *= d.Card()
	}
	if len(p.tmpl) < 3 {
		return fmt.Errorf("a ring needs at least 3 processes, the program has %d", len(p.tmpl))
	}
	for ai, a := range p.prog.Actions {
		pr := &p.tmpl[p.owner[p.index[a.Assigns[0].Name]]]
		pr.actions = append(pr.actions, action{strings.TrimRight(a.Name, "0123456789"), &p.prog.Actions[ai]})
	}
	return nil
}

// span sets the memo strides of the registers template process i reads
// and returns how many points they span, or maxMemo + 1 past the cap. It
// rejects a read outside the ring neighborhood. The own register always
// counts, as a move keeps the owned variables it does not assign.
func (p *Protocol) span(i int) (int, error) {
	pr, reads := &p.tmpl[i], make([]int, len(p.prog.Vars))
	for _, a := range pr.actions {
		gcl.MarkReads(a.decl.Guard, reads, 1)
		for _, as := range a.decl.Assigns {
			gcl.MarkReads(as.Expr, reads, 1)
		}
	}
	if pr.extra != nil {
		gcl.MarkReads(pr.extra, reads, 1)
	}
	read := [3]bool{1: true}
	for v, r := range reads {
		if s := slices.Index(pr.nb[:], p.owner[v]); r == 1 && s < 0 {
			return 0, fmt.Errorf("process %d reads %s, outside its ring neighborhood", i, p.prog.Vars[v].Name)
		} else if r == 1 {
			read[s] = true
		}
	}
	points := 1
	for s := 2; s >= 0; s-- {
		if d := p.tmpl[pr.nb[s]].domain; read[s] && points <= maxMemo/d {
			pr.stride[s] = points
			points *= d
		} else if read[s] {
			points = maxMemo + 1
		}
	}
	return points, nil
}

// fill evaluates template process i's memo table over its points.
func (p *Protocol) fill(i, points int) []cell {
	pr, nb := &p.tmpl[i], p.tmpl[i].nb
	memo := make([]cell, points)
	for at := range memo {
		var reg [3]int
		for s, n := range nb {
			if pr.stride[s] > 0 {
				reg[s] = at / pr.stride[s] % p.tmpl[n].domain
			}
		}
		memo[at] = p.eval(i, reg)
	}
	return memo
}

// cell is what process i can do in the neighborhood (left, own, right).
func (p *Protocol) cell(i, left, own, right int) cell {
	pr := p.procs[i]
	if pr.memo != nil {
		return pr.memo[left*pr.stride[0]+own*pr.stride[1]+right*pr.stride[2]]
	}
	return p.eval(pr.nb[1], [3]int{left, own, right})
}

// eval runs template process i's actions through gcl.Eval in the
// neighborhood of registers reg (left, own, right). The templates are
// well-formed by construction, so an evaluation failure is a bug in a
// template.
func (p *Protocol) eval(i int, reg [3]int) cell {
	var scratch [8]int // as many variables as any family's template has
	env := append(system.Vals(scratch[:0]), make(system.Vals, len(p.prog.Vars))...)
	for s, n := range p.tmpl[i].nb {
		x, vars := reg[s], p.tmpl[n].vars
		for _, v := range vars[:len(vars)-1] {
			card := p.prog.Vars[v].Card()
			env[v], x = x%card, x/card
		}
		env[vars[len(vars)-1]] = x // the most significant; a lone variable is the register
	}
	value := func(e gcl.Expr) int {
		x, err := gcl.Eval(p.prog, e, env)
		if err != nil {
			panic(fmt.Sprintf("sim: %s: process %d: %v", p.name, i, err))
		}
		return x
	}
	var c cell
	for _, a := range p.tmpl[i].actions {
		if value(a.decl.Guard) == 0 {
			continue
		}
		c.privileged = true
		next := reg[1]
		for _, as := range a.decl.Assigns {
			v := p.index[as.Name]
			x := value(as.Expr) - p.prog.Vars[v].Lo // a boolean's Lo is 0
			if x < 0 || x >= p.prog.Vars[v].Card() {
				panic(fmt.Sprintf("sim: %s: action %s at process %d leaves %s's domain", p.name, a.rule, i, as.Name))
			}
			next += (x - env[v]) * p.weight[v]
		}
		if next != reg[1] {
			c.moves = append(c.moves, Move{Rule: a.rule, NewVal: next})
		}
	}
	c.privileged = c.privileged || p.tmpl[i].extra != nil && value(p.tmpl[i].extra) != 0
	return c
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return p.name }

// Procs returns P, the number of processes.
func (p *Protocol) Procs() int { return len(p.procs) }

// Domain returns the register domain size of process i (values are
// 0..Domain(i)−1).
func (p *Protocol) Domain(i int) int { return p.procs[i].domain }

// Moves returns the state-changing moves of process i given its
// neighborhood, in declaration order. τ moves that leave the register
// unchanged are not reported: a daemon scheduling a no-op is
// indistinguishable from not scheduling it. The slice may be shared;
// callers must not modify it.
func (p *Protocol) Moves(i, left, own, right int) []Move {
	return p.cell(i, left, own, right).moves
}

// at is what process i can do in configuration c. It finds the ring
// neighbors without dividing, which the unmemoized K-state step notices.
func (p *Protocol) at(c Config, i int) cell {
	left, right := i-1, i+1
	if i == 0 {
		left = len(c) - 1
	}
	if right == len(c) {
		right = 0
	}
	return p.cell(i, c[left], c[i], c[right])
}

// TokenAt reports whether process i holds a token (is privileged) in the
// configuration.
func (p *Protocol) TokenAt(c Config, i int) bool { return p.at(c, i).privileged }

// Legitimate reports whether exactly one process is privileged.
func (p *Protocol) Legitimate(c Config) bool { return TokenCount(p, c) == 1 }

// TokenCount counts privileged processes under the protocol.
func TokenCount(p *Protocol, c Config) int {
	n := 0
	for i := 0; i < p.Procs(); i++ {
		if p.TokenAt(c, i) {
			n++
		}
	}
	return n
}

// EnabledMoves collects every process's moves in the configuration, with
// Proc filled in. The result is deterministic: processes in index order,
// rules in declaration order.
func EnabledMoves(p *Protocol, c Config) []Move {
	var out []Move
	for i := range c {
		for _, m := range p.at(c, i).moves {
			m.Proc = i
			out = append(out, m)
		}
	}
	return out
}

// Validate checks a configuration against the protocol's shape.
func Validate(p *Protocol, c Config) error {
	if len(c) != p.Procs() {
		return fmt.Errorf("sim: config has %d registers, protocol %q has %d processes",
			len(c), p.Name(), p.Procs())
	}
	for i, v := range c {
		if v < 0 || v >= p.Domain(i) {
			return fmt.Errorf("sim: register %d holds %d, outside domain [0,%d)", i, v, p.Domain(i))
		}
	}
	return nil
}
