// Package gcl is a clean gasloop fixture shaped like the guarded-command
// compiler: the enumeration is metered, the plain entry point delegates
// with an unlimited meter, and the declaration loop carries a reasoned
// waiver because it runs once per variable, not once per state.
package gcl

import (
	"repro/internal/mc"
	"repro/internal/system"
)

// Program is a parsed program: one cardinality per declared variable.
type Program struct {
	Cards []int
}

// SpaceOf builds the variables of a program's state space.
func SpaceOf(p *Program) []system.Var { //gcvet:gasloop-ok one iteration per declared variable, never per state
	vars := make([]system.Var, len(p.Cards))
	for i, c := range p.Cards {
		vars[i] = system.Var{Card: c}
	}
	return vars
}

// CompileProgramGas enumerates under a meter, one tick per state.
func CompileProgramGas(g *mc.Gas, p *Program, sys *system.System) (int, error) {
	edges := 0
	for s := 0; s < sys.NumStates(); s++ {
		if err := g.Tick(1); err != nil {
			return 0, err
		}
		edges += len(sys.Succ(s))
	}
	return edges, nil
}

// CompileProgram is the unlimited wrapper: no loop of its own.
func CompileProgram(p *Program, sys *system.System) int {
	n, _ := CompileProgramGas(nil, p, sys)
	return n
}
