package gcl

import (
	"fmt"

	"repro/internal/system"
)

// Lowering turns a checked program into the form every state-space sweep
// runs: expressions become closures over resolved variable indices, and
// each assignment carries its target's index, domain and mixed-radix
// stride. A Cursor walks the states in index order with an odometer of
// decoded digits, so the successor of an action is computed as
// s + Σ (enc − env[vi])·stride[vi] with no per-state Decode/Encode, name
// lookup or interface switch. CompileProgram and the linter's exact tier
// both sweep through a Cursor; Eval stays as the tree-walking reference
// the lowered form is tested against.

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

type loweredAction struct {
	guard   node
	assigns []loweredAssign
}

// Lowered is a checked program lowered for sweeping. It is immutable;
// each sweep runs on its own Cursor.
type Lowered struct {
	prog    *Program
	space   *system.Space
	card    []int
	init    node // nil: every state is initial
	actions []loweredAction
	maxAsg  int
}

// Lower lowers a program that has passed Check.
func Lower(prog *Program) *Lowered { //gcvet:gasloop-ok one iteration per declaration and action, never per state
	l := &Lowered{prog: prog, space: SpaceOf(prog), card: make([]int, len(prog.Vars))}
	for i, v := range prog.Vars {
		l.card[i] = v.Card()
	}
	if prog.Init != nil {
		l.init = lowerExpr(prog, prog.Init)
	}
	l.actions = make([]loweredAction, len(prog.Actions))
	for ai := range prog.Actions {
		a := &prog.Actions[ai]
		la := loweredAction{guard: lowerExpr(prog, a.Guard), assigns: make([]loweredAssign, len(a.Assigns))}
		for asi, as := range a.Assigns {
			vi := varIndex(prog, as.Name)
			lo, hi := prog.Vars[vi].Lo, prog.Vars[vi].Hi
			if prog.Vars[vi].IsBool {
				lo, hi = 0, 1
			}
			la.assigns[asi] = loweredAssign{vi: vi, lo: lo, hi: hi,
				stride: l.space.Stride(vi), rhs: lowerExpr(prog, as.Expr)}
		}
		l.actions[ai] = la
		l.maxAsg = max(l.maxAsg, len(a.Assigns))
	}
	return l
}

// Space returns the program's state space.
func (l *Lowered) Space() *system.Space { return l.space }

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

// Cursor is one sweep over a lowered program's states in increasing
// index order. It is not safe for concurrent use.
type Cursor struct {
	l     *Lowered
	state int
	m     machine
	// Per assignment of the last Exec: the right-hand side's value and
	// its evaluation failure, if any.
	vals []int
	errs []*EvalError
}

// NewCursor returns a cursor positioned before state 0.
func (l *Lowered) NewCursor() *Cursor {
	return &Cursor{
		l:     l,
		state: -1,
		m:     machine{env: make([]int, len(l.card))},
		vals:  make([]int, l.maxAsg),
		errs:  make([]*EvalError, l.maxAsg),
	}
}

// Next advances to the next state and reports whether there is one.
func (c *Cursor) Next() bool {
	if c.state < 0 {
		c.state = 0
		return true
	}
	env := c.m.env
	for i, card := range c.l.card {
		if env[i]++; env[i] < card {
			c.state++
			return true
		}
		env[i] = 0
	}
	return false
}

// State returns the current state's index.
func (c *Cursor) State() int { return c.state }

// eval runs one lowered expression in the current state.
func (c *Cursor) eval(n node) (int, error) {
	c.m.err = nil
	v := n(&c.m)
	if c.m.err != nil {
		return 0, c.m.err
	}
	return v, nil
}

// Init reports whether the current state satisfies the init predicate.
func (c *Cursor) Init() (bool, error) {
	if c.l.init == nil {
		return true, nil
	}
	v, err := c.eval(c.l.init)
	return v != 0, err
}

// Enabled reports whether action ai's guard holds in the current state.
func (c *Cursor) Enabled(ai int) (bool, error) {
	v, err := c.eval(c.l.actions[ai].guard)
	return v != 0, err
}

// Exec runs action ai's simultaneous assignments against the current
// state. It returns the successor state, or −1 when some assignment
// faulted (see Escaped), and whether every assignment rewrote its target's
// current value (a τ step; false whenever an assignment faulted).
func (c *Cursor) Exec(ai int) (next int, identity bool) {
	next, identity = c.state, true
	ok := true
	for asi := range c.l.actions[ai].assigns {
		as := &c.l.actions[ai].assigns[asi]
		c.m.err = nil
		v := as.rhs(&c.m)
		c.vals[asi], c.errs[asi] = v, c.m.err
		if c.m.err != nil || v < as.lo || v > as.hi {
			ok, identity = false, false
			continue
		}
		if d := v - as.lo - c.m.env[as.vi]; d != 0 {
			next += d * as.stride
			identity = false
		}
	}
	if !ok {
		return -1, false
	}
	return next, identity
}

// Escaped reports whether assignment asi of the last Exec of action ai
// evaluated to a value outside its target's domain. An assignment whose
// right-hand side failed to evaluate has no value and did not escape.
func (c *Cursor) Escaped(ai, asi int) bool {
	as := &c.l.actions[ai].assigns[asi]
	v := c.vals[asi]
	return c.errs[asi] == nil && (v < as.lo || v > as.hi)
}

// execError is the compile error for the first faulted assignment of
// the last Exec of action ai.
func (c *Cursor) execError(ai int) error {
	a := &c.l.prog.Actions[ai]
	for asi, as := range a.Assigns {
		if err := c.errs[asi]; err != nil {
			return evalFailure(c.l.space, c.state, err)
		}
		if c.Escaped(ai, asi) {
			_, encErr := encodeValue(c.l.prog.Vars[c.l.actions[ai].assigns[asi].vi], c.vals[asi])
			return &EvalError{Pos: as.Pos,
				Msg:   fmt.Sprintf("action %q: %v", a.Name, encErr),
				State: c.l.space.StateString(c.state)}
		}
	}
	panic("gcl: execError without a faulted assignment")
}
