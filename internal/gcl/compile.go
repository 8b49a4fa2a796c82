package gcl

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/mc"
	"repro/internal/system"
)

// Compiled is a type-checked program together with its state space and
// enumerated automaton.
type Compiled struct {
	Program *Program
	Space   *system.Space
	System  *system.System
}

// Compile parses, checks, and enumerates a GCL source text into an
// automaton named name.
func Compile(name, src string) (*Compiled, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("gcl: parsing %s: %w", name, err)
	}
	return CompileProgram(name, prog)
}

// CompileProgram checks and enumerates an already-parsed program.
func CompileProgram(name string, prog *Program) (*Compiled, error) {
	return CompileProgramGas(nil, name, prog)
}

// CompileProgramGas is CompileProgram under a meter: it ticks g once per
// state×action and once per table entry filled, like the linter's exact
// tier, and returns g's error (cancellation or budget exhaustion) instead
// of finishing the sweep.
func CompileProgramGas(g *mc.Gas, name string, prog *Program) (*Compiled, error) {
	c, _, err := compile(g, name, prog, false)
	return c, err
}

// CompileLabeled checks and enumerates an already-parsed program keeping
// action identity: each transition is labeled with the action that
// produced it. Its base automaton is CompileProgram's.
func CompileLabeled(name string, prog *Program) (*system.LabeledSystem, error) {
	_, ls, err := compile(nil, name, prog, true)
	return ls, err
}

// compile is the sweep behind CompileProgramGas and CompileLabeled. It
// writes each state's successors straight into the rows it hands
// FromSuccessors, which it draws from system.Ints; the caller that owns
// the result may give them back with System.Release. With labeled set it
// lists each state's moves instead and also records each move's action
// and successor, in action order, before FromSuccessors sorts the rows
// in place.
func compile(g *mc.Gas, name string, prog *Program, labeled bool) (*Compiled, *system.LabeledSystem, error) {
	if err := Check(prog); err != nil {
		return nil, nil, fmt.Errorf("gcl: checking %s: %w", name, err)
	}
	l, err := Lower(g, prog)
	if err != nil {
		return nil, nil, err
	}
	sp := l.Space()
	n := sp.Size()
	numA := len(prog.Actions)
	off := system.Ints(n + 1)
	off[0] = 0
	succ := system.Ints(l.Transitions())[:0]
	var edges []system.LabeledEdge
	var moves []Move
	if labeled {
		edges = make([]system.LabeledEdge, 0, l.Transitions())
		moves = make([]Move, 0, numA)
	}
	init := bitset.New(n)
	c := l.NewCursor()
	for c.Next() {
		if err := g.Tick(numA); err != nil {
			return nil, nil, putRows(off, succ, err)
		}
		s := c.State()
		isInit, err := c.Init()
		if err != nil {
			return nil, nil, putRows(off, succ, evalFailure(sp, s, err))
		}
		if isInit {
			init.Add(s)
		}
		if !labeled {
			var fault int
			if succ, fault = c.Successors(succ); fault >= 0 {
				return nil, nil, putRows(off, succ, c.Fault(fault))
			}
			off[s+1] = len(succ)
			continue
		}
		moves = c.Moves(moves[:0])
		for _, m := range moves {
			if m.Next == Faulted {
				return nil, nil, putRows(off, succ, c.Fault(m.Action))
			}
			succ = append(succ, m.Next)
			edges = append(edges, system.LabeledEdge{Action: m.Action, To: m.Next})
		}
		off[s+1] = len(succ)
	}
	var edgeOff []int
	if labeled {
		edgeOff = slices.Clone(off)
	}
	sys := system.FromSuccessors(name, sp, off, succ, init)
	compiled := &Compiled{Program: prog, Space: sp, System: sys}
	if !labeled {
		return compiled, nil, nil
	}
	names := make([]string, numA)
	for ai, a := range prog.Actions {
		names[ai] = a.Name
	}
	return compiled, system.NewLabeled(sys, names, edgeOff, edges), nil
}

// putRows gives back the rows a failed compile drew, and returns err.
func putRows(off, succ []int, err error) error {
	system.PutInts(off)
	system.PutInts(succ)
	return err
}

// StateBound returns the number of states a program's declarations
// span — the product of their cardinalities — or limit+1 once that
// product passes limit, so a size check against limit cannot overflow.
func StateBound(prog *Program, limit int) int {
	size := 1
	for _, v := range prog.Vars {
		if c := v.Card(); c > limit/size {
			return limit + 1
		} else {
			size *= c
		}
	}
	return size
}

// SameShape reports whether two programs declare the same variables, in
// order, with the same cardinalities: whether their state spaces would
// have the same shape, without building them.
func SameShape(a, b *Program) bool {
	if len(a.Vars) != len(b.Vars) {
		return false
	}
	for i, v := range a.Vars {
		if w := b.Vars[i]; v.Name != w.Name || v.Card() != w.Card() {
			return false
		}
	}
	return true
}

// maxStates is the largest state space system.NewSpace represents.
const maxStates = 1 << 62

// SpaceOf builds the structured state space of a program's declarations.
// It panics when they span more than 2^62 states; StateBound checks
// first.
func SpaceOf(prog *Program) *system.Space { //gcvet:gasloop-ok one iteration per declared variable, never per state
	vars := make([]system.Var, len(prog.Vars))
	for i, v := range prog.Vars {
		if v.IsBool {
			vars[i] = system.Bool(v.Name)
		} else if v.Lo == 0 {
			vars[i] = system.Int(v.Name, v.Card())
		} else {
			lo := v.Lo
			vars[i] = system.Var{Name: v.Name, Card: v.Card(), Fmt: func(x int) string {
				return fmt.Sprintf("%d", x+lo)
			}}
		}
	}
	return system.NewSpace(vars...)
}

func varIndex(prog *Program, name string) int {
	for i, v := range prog.Vars {
		if v.Name == name {
			return i
		}
	}
	// Unreachable after Check.
	panic(fmt.Sprintf("gcl: unresolved variable %q", name))
}

func encodeValue(decl VarDecl, v int) (int, error) {
	if decl.IsBool {
		if v != 0 && v != 1 {
			return 0, fmt.Errorf("boolean %q assigned %d", decl.Name, v)
		}
		return v, nil
	}
	if v < decl.Lo || v > decl.Hi {
		return 0, fmt.Errorf("variable %q assigned %d outside %d..%d", decl.Name, v, decl.Lo, decl.Hi)
	}
	return v - decl.Lo, nil
}

func evalFailure(sp *system.Space, s int, err error) error {
	if ee, okk := err.(*EvalError); okk && ee.State == "" && sp != nil { // a LowerWeighted program has no space
		ee.State = sp.StateString(s)
		return ee
	}
	return err
}
