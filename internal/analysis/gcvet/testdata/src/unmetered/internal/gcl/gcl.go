// Package gcl is a flagged gasloop fixture: a guarded-command compiler
// whose enumeration cannot be cancelled. Any package path ending in
// internal/gcl is gated.
package gcl

import (
	"repro/internal/mc"
	"repro/internal/system"
)

// Program is a parsed program: one cardinality per declared variable.
type Program struct {
	Cards []int
}

// CompileProgram enumerates every state with no way to bound it.
func CompileProgram(p *Program, sys *system.System) int { // want `exported CompileProgram contains a state-space loop but accepts no \*mc\.Gas`
	edges := 0
	for s := 0; s < sys.NumStates(); s++ {
		edges += len(sys.Succ(s))
	}
	return edges
}

// CompileProgramGas takes the meter but never charges it.
func CompileProgramGas(g *mc.Gas, p *Program, sys *system.System) int {
	edges := 0
	for s := 0; s < sys.NumStates(); s++ { // want `state-space loop in exported CompileProgramGas does not charge gas`
		edges += len(sys.Succ(s))
	}
	return edges
}

// SpaceOf loops over declarations without a waiver: the analyzer cannot
// tell a declaration loop from a sweep, so it is flagged.
func SpaceOf(p *Program) []system.Var { // want `exported SpaceOf contains a state-space loop but accepts no \*mc\.Gas`
	vars := make([]system.Var, len(p.Cards))
	for i, c := range p.Cards {
		vars[i] = system.Var{Card: c}
	}
	return vars
}
