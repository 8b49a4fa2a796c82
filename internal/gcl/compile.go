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
// state×action, like the linter's exact tier, and returns g's error
// (cancellation or budget exhaustion) instead of finishing the sweep.
func CompileProgramGas(g *mc.Gas, name string, prog *Program) (*Compiled, error) {
	if err := Check(prog); err != nil {
		return nil, fmt.Errorf("gcl: checking %s: %w", name, err)
	}
	l := Lower(prog)
	sp := l.Space()
	n := sp.Size()
	off := make([]int, n+1)
	succ := make([]int, 0, n)
	init := bitset.New(n)
	c := l.NewCursor()
	for c.Next() {
		s := c.State()
		isInit, err := c.Init()
		if err != nil {
			return nil, evalFailure(sp, s, err)
		}
		if isInit {
			init.Add(s)
		}
		for ai := range prog.Actions {
			if err := g.Tick(1); err != nil {
				return nil, err
			}
			enabled, err := c.Enabled(ai)
			if err != nil {
				return nil, evalFailure(sp, s, err)
			}
			if !enabled {
				continue
			}
			t, _ := c.Exec(ai)
			if t < 0 {
				return nil, c.execError(ai)
			}
			if len(succ) == cap(succ) {
				// Double rather than let append grow by 1.25×: the rows
				// outgrow the initial capacity of n several times, and
				// doubling allocates 43% fewer bytes on the ring families
				// (BenchmarkGCLCompile/D3-N6: 172 KiB/op against 303).
				succ = slices.Grow(succ, len(succ))
			}
			succ = append(succ, t)
		}
		off[s+1] = len(succ)
	}
	sys := system.FromSuccessors(name, sp, off, succ, init)
	return &Compiled{Program: prog, Space: sp, System: sys}, nil
}

// SpaceOf builds the structured state space of a program's declarations.
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
	if ee, okk := err.(*EvalError); okk && ee.State == "" {
		ee.State = sp.StateString(s)
		return ee
	}
	return err
}
