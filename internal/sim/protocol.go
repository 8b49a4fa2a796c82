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
	"sync"

	"repro/internal/gcl"
	"repro/internal/ring"
)

// tableBudget is how many entries the action tables of the template,
// lowered by gcl.LowerWeighted, may hold in all: 640 KiB of int32
// entries. Every 3- and 4-state template fits, and so does a K-state
// template up to K = 181; past that, the actions that do not fit run
// their closures.
const tableBudget = 160 << 10

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
// guards holds, τ included. A ring of more than layoutFrom processes
// runs the processes of its template compiled at layoutFrom, the middle
// one repeated. A variable weighs its place in its register, so an
// action's entry in the lowered template is its register's change.
type Protocol struct {
	name    string
	prog    *gcl.Program
	low     *gcl.Lowered
	entries []int32    // the lowered template's table entries
	tmpl    []process  // the program's processes
	procs   []*process // the ring's processes, each one of tmpl
}

type process struct {
	nb      [3]int   // template indices of its left neighbor, itself and its right neighbor
	domain  int      // register domain size
	actions []action // in declaration order
}

// action is one of a process's actions and where its entries lie: at
// base + left·coef[0] + own·coef[1] + right·coef[2].
type action struct {
	rule  string // the action's name without its trailing process index
	index int    // the action's index in the program
	base  int
	coef  [3]int
}

// Move is one enabled state change at a process.
type Move struct {
	// Proc is the process the move belongs to.
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

// families maps each family to the program the simulator runs for top
// index n (and modulus k): its ring template, and for dijkstra3 a τ
// action, since Dijkstra's top is also privileged on ↑t.N, which its
// guard does not test.
var families = map[string]func(n, k int) string{
	"dijkstra3": func(n, _ int) string {
		return ring.Dijkstra3GCL(n) + fmt.Sprintf("action tau: c%d == (c%d + 1) %% 3 -> c%d := c%d;\n", n-1, n, n, n)
	},
	"dijkstra4": func(n, _ int) string { return ring.Dijkstra4GCL(n) },
	"kstate":    ring.KStateGCL,
	"newthree":  func(n, _ int) string { return ring.NewThreeGCL(n) },
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
// to kstate. The compiled template is cached, so a repeated build only
// lays it out. Out-of-range parameters are an error, not a panic, so
// callers can pass user input straight through.
func NewProtocol(family string, p, k int) (*Protocol, error) {
	if err := CheckFamily(family, p, k); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s(P=%d)", family, p)
	if family == "kstate" {
		name = fmt.Sprintf("kstate(P=%d,K=%d)", p, k)
	} else {
		k = 0 // the other families have no modulus: one template serves every k
	}
	tmpl, err := templates.get(templateKey{family, min(p, layoutFrom), k}, name)
	if err != nil {
		return nil, err
	}
	proto := *tmpl
	proto.name = name
	if p > layoutFrom {
		proto.stretch(p)
	}
	return &proto, nil
}

// stretch lays a protocol compiled at layoutFrom processes out on a ring
// of procs ≥ layoutFrom: the two processes at each end are the
// template's, and every process between them is the template's middle
// process 2. It builds a new process list, so the template it was
// copied from stays as it is.
func (p *Protocol) stretch(procs int) {
	ring := make([]*process, procs)
	for i := range ring {
		ring[i] = p.procs[max(min(i, 2), i-procs+layoutFrom)]
	}
	p.procs = ring
}

// templateKey names one compiled template: a family compiled at size
// processes with modulus k (0 for the families that have none).
type templateKey struct {
	family string
	size   int
	k      int
}

// maxTemplates bounds the template cache. A K-state template's tables
// hold at most tableBudget entries (640 KiB), so the cache holds at
// most about 10 MiB however many moduli requests name.
const maxTemplates = 16

// templateCache keeps the most recently built templates, so a service
// that builds a protocol per request compiles and tabulates each
// (family, size, k) once. A Protocol is read-only after construction,
// so every protocol built from a template shares its tables.
type templateCache struct {
	mu    sync.Mutex
	byKey map[templateKey]*Protocol
	order []templateKey // insertion order, oldest first
}

var templates = templateCache{byKey: make(map[templateKey]*Protocol)}

// get returns the template for key, compiling it under name on a miss.
// Two concurrent misses on one key may both compile; the second keeps
// the first's template.
func (c *templateCache) get(key templateKey, name string) (*Protocol, error) {
	c.mu.Lock()
	t, ok := c.byKey[key]
	c.mu.Unlock()
	if ok {
		return t, nil
	}
	t, err := compile(name, families[key.family](key.size-1, key.k), tableBudget)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if have, ok := c.byKey[key]; ok {
		return have, nil
	}
	if len(c.order) == maxTemplates {
		delete(c.byKey, c.order[0])
		c.order = c.order[1:]
	}
	c.byKey[key] = t
	c.order = append(c.order, key)
	return t, nil
}

// compile builds the protocol of a GCL ring program, lowered with at
// most budget table entries.
func compile(name, src string, budget int) (*Protocol, error) {
	prog, err := gcl.Parse(src)
	if err == nil {
		err = gcl.Check(prog)
	}
	p := &Protocol{name: name, prog: prog}
	var owner, weight []int
	if err == nil {
		owner, weight, err = p.partition()
	}
	for i, n := 0, len(p.tmpl); err == nil && i < n; i++ {
		p.tmpl[i].nb = [3]int{(i + n - 1) % n, i, (i + 1) % n}
		p.procs = append(p.procs, &p.tmpl[i])
		err = p.checkReads(i, owner)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", name, err)
	}
	p.low = gcl.LowerWeighted(prog, owner, weight, budget)
	for _, pr := range p.procs {
		for k := range pr.actions {
			a, terms := &pr.actions[k], []gcl.Term(nil)
			p.entries, a.base, terms = p.low.Index(a.index)
			for _, t := range terms {
				a.coef[slices.Index(pr.nb[:], t.Reg)] = t.Weight
			}
		}
	}
	return p, nil
}

// partition groups the variables into processes by the actions that
// write them, hands each action to its process, and returns each
// variable's process and weight in its register.
func (p *Protocol) partition() (owner, weight []int, err error) {
	vars := p.prog.Vars
	index := make(map[string]int, len(vars))
	owner, weight = make([]int, len(vars)), make([]int, len(vars))
	parent := make([]int, len(vars))
	for v, d := range vars {
		index[d.Name], parent[v], owner[v] = v, v, -1
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v], v = parent[parent[v]], parent[v]
		}
		return v
	}
	for _, a := range p.prog.Actions {
		for _, as := range a.Assigns {
			parent[find(index[as.Name])] = find(index[a.Assigns[0].Name])
			owner[index[as.Name]] = 0 // written
		}
	}
	procOf := make(map[int]int, len(vars))
	for v, d := range vars {
		if owner[v] < 0 {
			return nil, nil, fmt.Errorf("variable %q is written by no action", d.Name)
		}
		i, seen := procOf[find(v)]
		if !seen {
			i, procOf[find(v)] = len(p.tmpl), len(p.tmpl)
			p.tmpl = append(p.tmpl, process{domain: 1})
		}
		pr := &p.tmpl[i]
		owner[v], weight[v] = i, pr.domain
		pr.domain *= d.Card()
	}
	if len(p.tmpl) < 3 {
		return nil, nil, fmt.Errorf("a ring needs at least 3 processes, the program has %d", len(p.tmpl))
	}
	for ai, a := range p.prog.Actions {
		pr := &p.tmpl[owner[index[a.Assigns[0].Name]]]
		pr.actions = append(pr.actions, action{rule: strings.TrimRight(a.Name, "0123456789"), index: ai})
	}
	return owner, weight, nil
}

// checkReads rejects a read of template process i outside its ring
// neighborhood.
func (p *Protocol) checkReads(i int, owner []int) error {
	pr, reads := &p.tmpl[i], make([]int, len(p.prog.Vars))
	for _, a := range pr.actions {
		decl := &p.prog.Actions[a.index]
		gcl.MarkReads(decl.Guard, reads, 1)
		for _, as := range decl.Assigns {
			gcl.MarkReads(as.Expr, reads, 1)
		}
	}
	for v, r := range reads {
		if r == 1 && !slices.Contains(pr.nb[:], owner[v]) {
			return fmt.Errorf("process %d reads %s, outside its ring neighborhood", i, p.prog.Vars[v].Name)
		}
	}
	return nil
}

// cell appends the moves of process i in the neighborhood of registers
// (left, own, right) to dst and reports whether i is privileged, from
// the entries of i's actions. On "evaluate", gcl.Lowered.Step runs the
// closures; a fault there is a bug in a template, well-formed by design.
func (p *Protocol) cell(dst []Move, i, left, own, right int) ([]Move, bool) {
	privileged, actions := false, p.procs[i].actions
	for k := range actions {
		a := &actions[k]
		e := p.entries[a.base+left*a.coef[0]+own*a.coef[1]+right*a.coef[2]]
		delta, enabled := int(e), e != gcl.Disabled
		if e == gcl.Evaluate {
			var scratch [layoutFrom]int
			regs, nb := append(scratch[:0], make([]int, len(p.tmpl))...), &p.procs[i].nb
			regs[nb[0]], regs[nb[1]], regs[nb[2]] = left, own, right
			var err error
			if delta, enabled, err = p.low.Step(a.index, regs); err != nil {
				panic(fmt.Sprintf("sim: %s: process %d: %v", p.name, i, err))
			}
		}
		privileged = privileged || enabled
		if enabled && delta != 0 {
			dst = append(dst, Move{Proc: i, Rule: a.rule, NewVal: own + delta})
		}
	}
	return dst, privileged
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
// indistinguishable from not scheduling it.
func (p *Protocol) Moves(i, left, own, right int) []Move {
	moves, _ := p.cell(nil, i, left, own, right)
	return moves
}

// scan appends every process's moves in c to dst, processes in index
// order and each one's rules in declaration order, and returns them with
// the number of privileged processes: one pass over the ring.
func (p *Protocol) scan(dst []Move, c Config) ([]Move, int) {
	tokens, left := 0, c[len(c)-1]
	for i, own := range c {
		right := c[0]
		if i+1 < len(c) {
			right = c[i+1]
		}
		var privileged bool
		if dst, privileged = p.cell(dst, i, left, own, right); privileged {
			tokens++
		}
		left = own
	}
	return dst, tokens
}

// TokenAt reports whether process i holds a token (is privileged) in the
// configuration.
func (p *Protocol) TokenAt(c Config, i int) bool {
	n := len(c)
	var scratch [4]Move // more moves than any process has
	_, privileged := p.cell(scratch[:0], i, c[(i+n-1)%n], c[i], c[(i+1)%n])
	return privileged
}

// Legitimate reports whether exactly one process is privileged.
func (p *Protocol) Legitimate(c Config) bool { return TokenCount(p, c) == 1 }

// TokenCount counts privileged processes under the protocol.
func TokenCount(p *Protocol, c Config) int {
	var scratch [8]Move // room for the moves of a few tokens; more spill to the heap
	_, n := p.scan(scratch[:0], c)
	return n
}

// EnabledMoves collects every process's moves in the configuration. The
// result is deterministic: processes in index order, rules in
// declaration order.
func EnabledMoves(p *Protocol, c Config) []Move {
	moves, _ := p.scan(nil, c)
	return moves
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
