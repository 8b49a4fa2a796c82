package gcl

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/mc"
	"repro/internal/system"
)

// Lowering turns a checked program into the form every state-space sweep
// runs. Expressions become closures over resolved variable indices, and
// each assignment carries its target's index, domain and mixed-radix
// stride, so an action's successor is s + Σ (enc − env[vi])·stride[vi]
// with no per-state Decode/Encode, name lookup or interface switch.
//
// The closures do not run per state. An action reads only a few of the
// program's variables (a ring process reads itself and its neighbours),
// so whether it is enabled, and what it adds to the state index, depend
// only on the projection of the state onto its read set R_a. Lower runs
// the closures once per point of that projection and records the outcome
// in a table: the successor delta, "disabled", or "evaluate" where the
// guard or an assignment faults. A Cursor sweeps the states in index
// order with an odometer, keeps each action's table index up to date as
// digits change, and lists each state's Moves by table lookup. Only on
// "evaluate" entries, and for actions left untabulated, does it run the
// closures on the real state, so a fault is reported with its state and
// in evaluation order.
//
// The init predicate is tabulated the same way, one table per top-level
// conjunct of its && chain: the ring inits are conjunctions of
// one-variable tests, so each conjunct's table is as small as a
// variable's domain. A conjunct's entry says "true", "false", or
// "evaluate" where it faults. Eval's && evaluates the conjuncts left to
// right and stops at the first false or faulting one, so testing them
// one by one, each by its table or, on "evaluate" and for a conjunct
// that reads all of Σ, by its closure, yields Eval's value and Eval's
// fault. CompileProgram and the linter's exact tier both sweep through
// a Cursor, and the ring simulator looks actions up by Step; Eval stays
// as the tree-walking reference the lowered form is tested against.

// machine is the mutable part of an evaluation: the current state's
// encoded digits and the first failure met while evaluating one
// expression.
type machine struct {
	env []int
	err *EvalError
}

// fail records a failure unless an earlier one is already recorded, so
// the failure reported is the first in evaluation order, as with Eval.
func (m *machine) fail(pos Pos, msg string) {
	if m.err == nil {
		m.err = &EvalError{Pos: pos, Msg: msg}
	}
}

// node is a lowered expression. It returns Eval's value in source units
// (booleans as 0/1); after a failure it returns an arbitrary value and
// m.err holds the failure.
type node func(m *machine) int

type loweredAssign struct {
	vi     int
	lo, hi int // the target's domain in source units
	stride int
	rhs    node
}

// tabled is what a table needs of an action or of a conjunct of init.
type tabled struct {
	// reads is the read set in increasing variable order: for an action
	// R_a, every variable the guard or a right-hand side reads, and
	// every target.
	reads []int
	size  int // Π_{v∈reads} card(v): the number of projection points
	// base is where the table starts in Lowered.tables. An untabulated
	// action's or conjunct's base is 0, the "evaluate" entry, and no
	// digit change moves its index off it.
	base int
}

type loweredAction struct {
	tabled
	terms   []Term // a tabulated action's reads, weighted as in its table index
	guard   node
	assigns []loweredAssign
	first   int // the first assignment's index among all the program's assignments
}

// loweredConj is one top-level conjunct of init.
type loweredConj struct {
	tabled
	expr Expr
	eval node
}

// Table entries other than a successor delta. Deltas lie strictly
// between −|Σ| and |Σ|, or within a table's register span (see
// tabulate), so they never collide with these. A conjunct's table holds
// entryFalse, entryTrue or Evaluate.
const (
	Disabled   = math.MinInt32     // the guard is false
	Evaluate   = math.MinInt32 + 1 // the guard, an assignment or the conjunct faults
	entryFalse = 0
	entryTrue  = 1
)

// evaluateOnly is the tables of a program with no tabulated action or
// conjunct.
var evaluateOnly = []int32{Evaluate}

// A Term is a register and its weight in a table index.
type Term struct{ Reg, Weight int }

// tableUse is one tabulated action or conjunct that reads a variable,
// and the variable's weight in its table index. slot is the index into
// Cursor.idx: the action's index, or len(actions) plus the conjunct's.
type tableUse struct {
	slot, weight int32
}

// Lowered is a checked program lowered for sweeping. It is immutable;
// each sweep runs on its own Cursor.
type Lowered struct {
	prog    *Program
	space   *system.Space
	card    []int
	init    []loweredConj // none: every state is initial
	actions []loweredAction
	numAsg  int
	// tables holds one "evaluate" entry, then every tabulated action's
	// table back to back, then every tabulated conjunct's.
	// uses[useOff[v]:useOff[v+1]] are the tabulated actions and
	// conjuncts reading variable v.
	tables []int32
	useOff []int
	uses   []tableUse
	// transitions is how many successors the sweep yields: exact when
	// every action is tabulated; otherwise the tables' share plus one
	// per state, a first guess that append grows past.
	transitions  int
	reg, weights []int     // LowerWeighted's registers and weights; Lower's strides
	cursors      sync.Pool // Step's
}

// Lower lowers a program that has passed Check and tabulates its
// actions and the conjuncts of its init. Filling the tables ticks g once
// per entry, and Lower returns g's error (cancellation or budget
// exhaustion) instead of finishing.
func Lower(g *mc.Gas, prog *Program) (*Lowered, error) {
	if StateBound(prog, maxStates) > maxStates {
		return nil, fmt.Errorf("gcl: state space above 2^62 states")
	}
	sp := SpaceOf(prog)
	return lower(g, prog, sp, nil, nil, sp.Size())
}

// LowerWeighted lowers a program that has passed Check, but not its
// init, for Index and Step, with no Space. Variable v is the digit of
// weight weights[v] in register reg[v], which packs its variables
// mixed-radix as the simulator's do. A delta is the change to its
// target's register, an action's table covers the whole registers it
// reads, and the tables hold at most budget entries.
func LowerWeighted(prog *Program, reg, weights []int, budget int) *Lowered {
	l, _ := lower(nil, prog, nil, reg, weights, budget) // a nil gas never runs out
	l.cursors.New = func() any { return l.NewCursor() }
	return l
}

// lower is Lower (given the space and no weights) and LowerWeighted.
func lower(g *mc.Gas, prog *Program, sp *system.Space, reg, weights []int, budget int) (*Lowered, error) {
	// One backing array holds the cardinalities, the per-variable use
	// offsets, Lower's strides, and tabulate's scratch: a mark per
	// variable and an order per action and conjunct.
	nv, na := len(prog.Vars), len(prog.Actions)
	var conjs []Expr
	if sp != nil && prog.Init != nil {
		conjs = conjuncts(prog.Init, nil)
	}
	ints := make([]int, 4*nv+1+na+len(conjs))
	if sp != nil {
		weights = ints[3*nv+1 : 4*nv+1]
	}
	l := &Lowered{prog: prog, space: sp, reg: reg, weights: weights, card: ints[:nv:nv], useOff: ints[nv : 2*nv+1 : 2*nv+1]}
	for i, v := range prog.Vars {
		l.card[i] = v.Card()
		if sp != nil {
			weights[i] = sp.Stride(i)
		}
	}
	if conjs != nil {
		l.init = make([]loweredConj, len(conjs))
		for ci, e := range conjs {
			l.init[ci] = loweredConj{expr: e, eval: lowerExpr(prog, e)}
		}
	}
	l.actions = make([]loweredAction, len(prog.Actions))
	for ai := range prog.Actions { //gcvet:gasloop-ok one iteration per action, never per state; tabulate meters the per-entry work
		a := &prog.Actions[ai]
		la := loweredAction{guard: lowerExpr(prog, a.Guard), assigns: make([]loweredAssign, len(a.Assigns))}
		for asi, as := range a.Assigns {
			vi := varIndex(prog, as.Name)
			lo, hi := prog.Vars[vi].Lo, prog.Vars[vi].Hi
			if prog.Vars[vi].IsBool {
				lo, hi = 0, 1
			}
			la.assigns[asi] = loweredAssign{vi: vi, lo: lo, hi: hi,
				stride: weights[vi], rhs: lowerExpr(prog, as.Expr)}
		}
		la.first = l.numAsg
		l.actions[ai] = la
		l.numAsg += len(a.Assigns)
	}
	if err := l.tabulate(g, budget, ints[2*nv+1:3*nv+1], ints[4*nv+1:]); err != nil {
		return nil, err
	}
	return l, nil
}

// conjuncts appends the conjuncts of e's top-level && chain to dst, in
// evaluation order.
func conjuncts(e Expr, dst []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == KindAnd {
		return conjuncts(b.Y, conjuncts(b.X, dst))
	}
	return append(dst, e)
}

// tabulate computes every action's and conjunct's read set and fills the
// tables that fit. Actions go smallest first, under a total of n entries
// (|Σ| for Lower, 4 bytes per state), and only where the table is smaller
// than n; the conjuncts of init follow in source order under the same
// two bounds of their own. The rest stay untabulated: Moves evaluates
// those actions and Init those conjuncts state by state. mark and order
// are zeroed scratch, one int per variable and per action and conjunct.
func (l *Lowered) tabulate(g *mc.Gas, n int, mark, order []int) error {
	numV, numA := len(l.card), len(l.actions)
	// Read sets, in one backing array: mark[v] == slot+1 when the action
	// or conjunct in that slot of Cursor.idx reads v. A size stops at n.
	reads := make([]int, 0, 3*numA+len(l.init))
	// LowerWeighted's read sets take whole registers, ordered by register
	// and then weight, so that a table index is linear in the registers.
	readSet := func(t *tabled, slot int) {
		for u := 0; l.reg != nil && u < len(mark); u++ {
			for v := range mark {
				if mark[v] == slot+1 && l.reg[v] == l.reg[u] {
					mark[u] = slot + 1
				}
			}
		}
		from := len(reads)
		t.size = 1
		for v := range mark {
			if mark[v] == slot+1 {
				reads = append(reads, v)
				if t.size <= (n-1)/l.card[v] {
					t.size *= l.card[v]
				} else {
					t.size = n
				}
			}
		}
		t.reads = reads[from:len(reads):len(reads)]
		if l.reg != nil {
			slices.SortFunc(t.reads, func(a, b int) int { return cmp.Or(l.reg[a]-l.reg[b], l.weights[a]-l.weights[b]) })
		}
	}
	for ai := range l.actions {
		a := &l.prog.Actions[ai]
		MarkReads(a.Guard, mark, ai+1)
		for _, as := range a.Assigns {
			MarkReads(as.Expr, mark, ai+1)
		}
		for _, as := range l.actions[ai].assigns {
			mark[as.vi] = ai + 1
		}
		readSet(&l.actions[ai].tabled, ai)
	}
	for ci := range l.init {
		MarkReads(l.init[ci].expr, mark, numA+ci+1)
		readSet(&l.init[ci].tabled, numA+ci)
	}

	// Choose the action tables, smallest first, and lay them out back to
	// back.
	order = order[:numA]
	for ai := range order {
		order[ai] = ai
	}
	slices.SortStableFunc(order, func(a, b int) int { return l.actions[a].size - l.actions[b].size })
	// A delta lies strictly between −n and n: within |Σ| for Lower, and
	// within its table's size, which spans its targets' registers, for
	// LowerWeighted. Below MaxInt32 every delta fits an entry without
	// meeting the two markers. The tables start after the "evaluate"
	// entry.
	total, k := 0, 0
	for ; k < numA && n < math.MaxInt32; k++ {
		la := &l.actions[order[k]]
		if la.size >= n || total+la.size > n {
			break
		}
		la.base = 1 + total
		total += la.size
	}
	if k < numA {
		l.transitions = n
	}
	// The slots with a table: the chosen actions, then the conjuncts
	// that fit, laid out after them.
	slots := order[:k]
	initTotal := 0
	for ci := range l.init {
		if t := &l.init[ci].tabled; t.size < n && initTotal+t.size <= n {
			t.base = 1 + total
			total += t.size
			initTotal += t.size
			slots = append(slots, numA+ci)
		}
	}
	if len(slots) == 0 {
		l.tables = evaluateOnly
		return nil
	}
	l.tables = make([]int32, 1+total)
	l.tables[0] = Evaluate
	c := l.NewCursor()
	for _, i := range slots {
		fires, err := c.fill(g, i)
		if err != nil {
			return err
		}
		if i < numA {
			l.transitions += fires * (n / l.actions[i].size)
		}
	}

	// Index the tables by the variables they read: useOff[v] starts as
	// the end of v's uses, and placing each use one below it moves it
	// down to their start.
	for _, i := range slots {
		for _, v := range l.slot(i).reads {
			l.useOff[v]++
		}
	}
	for v := 1; v <= numV; v++ {
		l.useOff[v] += l.useOff[v-1]
	}
	l.uses = make([]tableUse, l.useOff[numV])
	var terms []Term
	for _, i := range slots {
		from, weight, rs := len(terms), 1, l.slot(i).reads
		for j, v := range rs {
			l.useOff[v]--
			l.uses[l.useOff[v]] = tableUse{slot: int32(i), weight: int32(weight)}
			if l.reg != nil && i < numA && (j == 0 || l.reg[rs[j-1]] != l.reg[v]) {
				terms = append(terms, Term{l.reg[v], weight})
			}
			weight *= l.card[v]
		}
		if i < numA {
			l.actions[i].terms = terms[from:len(terms):len(terms)]
		}
	}
	return nil
}

// slot returns the read set and table position of the action or
// conjunct in slot i of Cursor.idx.
func (l *Lowered) slot(i int) *tabled {
	if ci := i - len(l.actions); ci >= 0 {
		return &l.init[ci].tabled
	}
	return &l.actions[i].tabled
}

// fill runs the closures of the action or conjunct in slot i at every
// point of its projection, in the table's index order, ticking g once
// per entry, and returns how many of an action's entries are successors.
// The cursor's digits outside the read set are never read.
func (c *Cursor) fill(g *mc.Gas, i int) (int, error) {
	t := c.l.slot(i)
	table := c.l.tables[t.base : t.base+t.size]
	env := c.m.env
	for _, v := range t.reads {
		env[v] = 0
	}
	fires := 0
	for p := range table {
		if err := g.Tick(1); err != nil {
			return 0, err
		}
		table[p] = c.entry(i)
		if table[p] != Disabled && table[p] != Evaluate {
			fires++
		}
		for _, v := range t.reads {
			if env[v]++; env[v] < c.l.card[v] {
				break
			}
			env[v] = 0
		}
	}
	return fires, nil
}

// entry is the table entry of the action or conjunct in slot i at the
// cursor's digits.
func (c *Cursor) entry(i int) int32 {
	if ci := i - len(c.l.actions); ci >= 0 {
		switch v, err := c.conj(ci); {
		case err != nil:
			return Evaluate
		case v == 0:
			return entryFalse
		}
		return entryTrue
	}
	on, delta, fault := c.run(i)
	switch {
	case fault:
		return Evaluate
	case !on:
		return Disabled
	}
	return int32(delta)
}

// MarkReads sets mark[v] = stamp for every variable e reads (e must be
// resolved by Check).
func MarkReads(e Expr, mark []int, stamp int) {
	switch e := e.(type) {
	case *Ident:
		mark[e.Index] = stamp
	case *Unary:
		MarkReads(e.X, mark, stamp)
	case *Binary:
		MarkReads(e.X, mark, stamp)
		MarkReads(e.Y, mark, stamp)
	case *Cond:
		MarkReads(e.C, mark, stamp)
		MarkReads(e.X, mark, stamp)
		MarkReads(e.Y, mark, stamp)
	}
}

// Transitions is how many successors a sweep of every state and action
// yields: exact when every action is tabulated, otherwise a first guess.
// Sweeps size their successor arrays with it.
func (l *Lowered) Transitions() int { return l.transitions }

// Space returns the program's state space (nil from LowerWeighted).
func (l *Lowered) Space() *system.Space { return l.space }

// Index returns the table entries, read-only, and where action ai's lie
// at registers regs: entries[base + Σ regs[t.Reg]·t.Weight over terms].
// An entry is a delta, Disabled, or Evaluate, where Step runs the
// closures; an action without a table has base 0 and no terms.
func (l *Lowered) Index(ai int) (entries []int32, base int, terms []Term) {
	return l.tables, l.actions[ai].base, l.actions[ai].terms
}

// Step runs action ai's closures at registers regs, as an Evaluate entry
// asks: whether its guard holds and, if so, its delta. It runs on a
// cursor from a pool, so it is safe for concurrent use. A fault, or an
// assignment out of its target's domain, is the error.
func (l *Lowered) Step(ai int, regs []int) (delta int, enabled bool, err error) {
	c := l.cursors.Get().(*Cursor)
	defer l.cursors.Put(c)
	for _, v := range l.actions[ai].reads {
		c.m.env[v] = regs[l.reg[v]] / l.weights[v] % l.card[v]
	}
	if enabled, delta, fault := c.run(ai); !fault {
		return delta, enabled, nil
	}
	return 0, false, c.Fault(ai)
}

func lowerExpr(p *Program, e Expr) node {
	switch e := e.(type) {
	case *IntLit:
		v := e.Value
		return func(*machine) int { return v }
	case *BoolLit:
		v := b2i(e.Value)
		return func(*machine) int { return v }
	case *Ident:
		i, lo := identOperand(p, e)
		if lo != 0 {
			return func(m *machine) int { return m.env[i] + lo }
		}
		return func(m *machine) int { return m.env[i] }
	case *Unary:
		x := lowerExpr(p, e.X)
		if e.Op == KindNot {
			return func(m *machine) int { return 1 - x(m) }
		}
		return func(m *machine) int { return -x(m) }
	case *Cond:
		c, x, y := lowerExpr(p, e.C), lowerExpr(p, e.X), lowerExpr(p, e.Y)
		return func(m *machine) int {
			if c(m) != 0 {
				return x(m)
			}
			return y(m)
		}
	case *Binary:
		return lowerBinary(p, e)
	default:
		pos := e.Position()
		return func(m *machine) int { m.fail(pos, "unknown expression node"); return 0 }
	}
}

func lowerBinary(p *Program, e *Binary) node {
	x, y := lowerExpr(p, e.X), lowerExpr(p, e.Y)
	pos := e.Pos
	switch e.Op {
	case KindAnd:
		return func(m *machine) int {
			if x(m) == 0 {
				return 0
			}
			return y(m)
		}
	case KindOr:
		return func(m *machine) int {
			if x(m) != 0 {
				return 1
			}
			return y(m)
		}
	case KindPlus:
		return func(m *machine) int { return x(m) + y(m) }
	case KindMinus:
		return func(m *machine) int { return x(m) - y(m) }
	case KindStar:
		return func(m *machine) int { return x(m) * y(m) }
	case KindSlash:
		return func(m *machine) int {
			a, b := x(m), y(m)
			if b == 0 {
				m.fail(pos, "division by zero")
				return 0
			}
			return floorDiv(a, b)
		}
	case KindPercent:
		return func(m *machine) int {
			a, b := x(m), y(m)
			if b == 0 {
				m.fail(pos, "modulo by zero")
				return 0
			}
			return floorMod(a, b)
		}
	case KindEq:
		return func(m *machine) int { return b2i(x(m) == y(m)) }
	case KindNeq:
		return func(m *machine) int { return b2i(x(m) != y(m)) }
	case KindLt:
		return func(m *machine) int { return b2i(x(m) < y(m)) }
	case KindLe:
		return func(m *machine) int { return b2i(x(m) <= y(m)) }
	case KindGt:
		return func(m *machine) int { return b2i(x(m) > y(m)) }
	case KindGe:
		return func(m *machine) int { return b2i(x(m) >= y(m)) }
	}
	msg := fmt.Sprintf("unknown operator %s", e.Op)
	return func(m *machine) int { m.fail(pos, msg); return 0 }
}

// identOperand returns a variable's index and the offset that turns its
// encoded digit into its source value.
func identOperand(p *Program, id *Ident) (i, lo int) {
	if v := p.Vars[id.Index]; !v.IsBool {
		return id.Index, v.Lo
	}
	return id.Index, 0
}

// A Move is an action that is enabled in the cursor's state, or whose
// guard faulted there, and the state it leads to: a successor, or
// Faulted. A successor equal to the current state is a τ step: Check
// rejects duplicate targets, so the delta is 0 only when every
// assignment rewrote its target's value.
type Move struct {
	Action, Next int
}

// Faulted is the Next of a Move whose guard or assignment faulted; see
// GuardFaulted, Escaped and Fault.
const Faulted = -1

// disabled is evaluate's result for a false guard.
const disabled = -2

// Cursor is one sweep over a lowered program's states in increasing
// index order. It is not safe for concurrent use.
type Cursor struct {
	l     *Lowered
	state int
	m     machine
	// idx is, per action and then per conjunct of init, the current
	// state's entry in l.tables.
	idx []int
	// What the closures found the last time they ran an action: per
	// assignment (numbered across the program) the right-hand side's
	// value and failure, and then, after the assignments' failures, per
	// action the guard's failure.
	vals []int
	errs []*EvalError
	// tail is Successors' scratch for a dst without room for a
	// successor per action, made on first use.
	tail []int
}

// NewCursor returns a cursor positioned before state 0.
func (l *Lowered) NewCursor() *Cursor {
	nv, na, ni := len(l.card), len(l.actions), len(l.actions)+len(l.init)
	ints := make([]int, nv+ni+l.numAsg)
	c := &Cursor{
		l:     l,
		state: -1,
		m:     machine{env: ints[:nv:nv]},
		idx:   ints[nv : nv+ni : nv+ni],
		vals:  ints[nv+ni:],
		errs:  make([]*EvalError, l.numAsg+na),
	}
	for i := range c.idx {
		c.idx[i] = l.slot(i).base
	}
	return c
}

// Next advances to the next state and reports whether there is one.
// Only the tabulated actions that read a changed digit move their table
// index.
func (c *Cursor) Next() bool {
	if c.state < 0 {
		c.state = 0
		return true
	}
	l, env := c.l, c.m.env
	for i, card := range l.card {
		uses := l.uses[l.useOff[i]:l.useOff[i+1]]
		if env[i]++; env[i] < card {
			for _, u := range uses {
				c.idx[u.slot] += int(u.weight)
			}
			c.state++
			return true
		}
		env[i] = 0
		for _, u := range uses {
			c.idx[u.slot] -= (card - 1) * int(u.weight)
		}
	}
	return false
}

// State returns the current state's index.
func (c *Cursor) State() int { return c.state }

// Init reports whether the current state satisfies the init predicate.
// It tests the conjuncts in source order and stops at the first false
// one; a conjunct without a table, or whose entry is "evaluate", runs
// its closure, so a fault is the one Eval reports.
func (c *Cursor) Init() (bool, error) {
	tables := c.l.tables
	for ci, i := range c.idx[len(c.l.actions):] {
		switch tables[i] {
		case entryTrue:
			continue
		case entryFalse:
			return false, nil
		}
		switch v, err := c.conj(ci); {
		case err != nil:
			return false, err
		case v == 0:
			return false, nil
		}
	}
	return true, nil
}

// conj evaluates conjunct ci of init by its closure on the cursor's
// digits: its value, or the failure met.
func (c *Cursor) conj(ci int) (int, *EvalError) {
	c.m.err = nil
	v := c.l.init[ci].eval(&c.m)
	return v, c.m.err
}

// Moves appends the current state's moves, in action order, to dst and
// returns the extended slice.
//
// Moves and Successors emit without a data-dependent branch per action:
// each candidate is written to the next free slot unconditionally, and
// the slot is kept, by advancing the output index, only when the entry
// is not "disabled". Only "evaluate" entries take the closure path, a
// branch that ring programs never take.
func (c *Cursor) Moves(dst []Move) []Move {
	tables, idx := c.l.tables, c.idx[:len(c.l.actions)]
	dst = slices.Grow(dst, len(idx))
	out, k := dst[len(dst):len(dst)+len(idx)], 0
	for ai, i := range idx {
		e := tables[i]
		next := c.state + int(e)
		if e == Evaluate {
			if next = c.evaluate(ai); next == disabled {
				continue
			}
		}
		out[k] = Move{Action: ai, Next: next}
		k += b2i(e != Disabled)
	}
	return dst[:len(dst)+k]
}

// Successors appends the current state's successors, in action order,
// to dst. It returns the extended slice and −1, or, when an action
// faults, the slice as far as the actions before it and that action:
// the first Faulted move in Moves' order, whose error Fault gives.
// Sweeps that need no action labels use it instead of Moves.
func (c *Cursor) Successors(dst []int) ([]int, int) {
	na := len(c.l.actions)
	if cap(dst)-len(dst) >= na {
		return c.emit(dst)
	}
	// Too little room to write every candidate, as in the last states of
	// an exactly sized array: emit into the cursor's own scratch.
	if c.tail == nil {
		c.tail = make([]int, 0, na)
	}
	tail, fault := c.emit(c.tail)
	return append(dst, tail...), fault
}

// emit is Successors on a dst with room for a successor per action.
func (c *Cursor) emit(dst []int) ([]int, int) {
	tables, idx := c.l.tables, c.idx[:len(c.l.actions)]
	out, k := dst[len(dst):len(dst)+len(idx)], 0
	for ai, i := range idx {
		e := tables[i]
		next := c.state + int(e)
		if e == Evaluate {
			if next = c.evaluate(ai); next == disabled {
				continue
			} else if next == Faulted {
				return dst[:len(dst)+k], ai
			}
		}
		out[k] = next
		k += b2i(e != Disabled)
	}
	return dst[:len(dst)+k], -1
}

// evaluate steps action ai by its closures, for "evaluate" entries and
// untabulated actions: its successor, disabled, or Faulted.
func (c *Cursor) evaluate(ai int) int {
	on, delta, fault := c.run(ai)
	switch {
	case fault:
		return Faulted
	case !on:
		return disabled
	}
	return c.state + delta
}

// run evaluates action ai's guard and, when it holds, its simultaneous
// assignments with the closures on the cursor's digits. It returns the
// guard's value, the successor's offset from the current state, and
// whether the guard or an assignment faulted; the faults are kept for
// GuardFaulted, Escaped and Fault.
func (c *Cursor) run(ai int) (on bool, delta int, fault bool) {
	la := &c.l.actions[ai]
	c.m.err = nil
	g := la.guard(&c.m)
	if c.errs[c.l.numAsg+ai] = c.m.err; c.m.err != nil {
		return false, 0, true
	}
	if g == 0 {
		return false, 0, false
	}
	for asi := range la.assigns {
		as := &la.assigns[asi]
		c.m.err = nil
		v := as.rhs(&c.m)
		c.vals[la.first+asi], c.errs[la.first+asi] = v, c.m.err
		if c.m.err != nil || v < as.lo || v > as.hi {
			fault = true
			continue
		}
		delta += (v - as.lo - c.m.env[as.vi]) * as.stride
	}
	return true, delta, fault
}

// GuardFaulted reports whether action ai, Faulted in the current state,
// failed in its guard rather than in an assignment.
func (c *Cursor) GuardFaulted(ai int) bool { return c.errs[c.l.numAsg+ai] != nil }

// Escaped reports whether assignment asi of action ai, Faulted in the
// current state, evaluated to a value outside its target's domain. An
// assignment whose right-hand side failed to evaluate has no value and
// did not escape.
func (c *Cursor) Escaped(ai, asi int) bool {
	la := &c.l.actions[ai]
	as := &la.assigns[asi]
	v := c.vals[la.first+asi]
	return c.errs[la.first+asi] == nil && (v < as.lo || v > as.hi)
}

// Fault is the compile error of action ai, Faulted in the current state:
// the guard's failure, or else the first faulted assignment's.
func (c *Cursor) Fault(ai int) error {
	err := c.errs[c.l.numAsg+ai]
	if err == nil {
		err = c.assignFault(ai)
	}
	return evalFailure(c.l.space, c.state, err)
}

// assignFault is the failure of action ai's first faulted assignment,
// without its state.
func (c *Cursor) assignFault(ai int) *EvalError {
	a, la := &c.l.prog.Actions[ai], &c.l.actions[ai]
	for asi, as := range a.Assigns {
		if err := c.errs[la.first+asi]; err != nil {
			return err
		}
		if c.Escaped(ai, asi) {
			_, encErr := encodeValue(c.l.prog.Vars[la.assigns[asi].vi], c.vals[la.first+asi])
			return &EvalError{Pos: as.Pos, Msg: fmt.Sprintf("action %q: %v", a.Name, encErr)}
		}
	}
	panic("gcl: Fault without a faulted step")
}
