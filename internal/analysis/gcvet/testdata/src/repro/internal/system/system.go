// Package system is a minimal stand-in for the repo's transition
// system, giving gasloop fixtures a state-space type to touch.
package system

// Var is one finite-domain variable of a state space.
type Var struct {
	Name string
	Card int
}

// System is a finite transition system.
type System struct {
	succ [][]int
}

// NumStates returns the number of states.
func (s *System) NumStates() int { return len(s.succ) }

// Succ returns the successors of state i.
func (s *System) Succ(i int) []int { return s.succ[i] }
