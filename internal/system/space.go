// Package system defines the finite-state automaton model of the paper
// (Definition: a system S is an automaton (Σ, T, I)), together with the
// structured state spaces, labeled automata, box composition, and
// abstraction functions used throughout the derivations.
//
// States are represented as dense integer indices into a Space, which is a
// product of finite-domain variables. All systems over the same Space share
// the same index encoding, so the box operator and the refinement checkers
// can compare them state-by-state.
package system

import (
	"fmt"
	"strconv"
)

// Var is one finite-domain variable of a state space. Values range over
// [0, Card). Fmt, if non-nil, renders a value for display (e.g. booleans
// as "false"/"true"); otherwise values print as decimal integers.
type Var struct {
	Name string
	Card int
	Fmt  func(v int) string
}

// Bool returns a two-valued variable displayed as false/true.
func Bool(name string) Var {
	return Var{Name: name, Card: 2, Fmt: func(v int) string {
		if v == 0 {
			return "false"
		}
		return "true"
	}}
}

// Int returns a variable with values 0..card-1 displayed in decimal.
func Int(name string, card int) Var {
	return Var{Name: name, Card: card}
}

// Space is a product of finite-domain variables. A state of the space is an
// assignment of a value to every variable, encoded as a single integer in
// [0, Size()) using mixed-radix positional encoding (variable 0 is the
// lowest-order digit).
type Space struct {
	vars    []Var
	strides []int
	size    int
	index   map[string]int
}

// NewSpace builds a space from the given variables. It panics if a variable
// has a non-positive cardinality, a duplicate name, or if the product of
// cardinalities overflows int.
func NewSpace(vars ...Var) *Space {
	sp := &Space{
		vars:    make([]Var, len(vars)),
		strides: make([]int, len(vars)),
		size:    1,
		index:   make(map[string]int, len(vars)),
	}
	copy(sp.vars, vars)
	for i, v := range vars {
		if v.Card <= 0 {
			panic(fmt.Sprintf("system: variable %q has cardinality %d", v.Name, v.Card))
		}
		if _, dup := sp.index[v.Name]; dup {
			panic(fmt.Sprintf("system: duplicate variable name %q", v.Name))
		}
		sp.index[v.Name] = i
		sp.strides[i] = sp.size
		if sp.size > (1<<62)/v.Card {
			panic(fmt.Sprintf("system: state space overflow at variable %q", v.Name))
		}
		sp.size *= v.Card
	}
	return sp
}

// Size returns the number of states in the space.
func (sp *Space) Size() int { return sp.size }

// NumVars returns the number of variables.
func (sp *Space) NumVars() int { return len(sp.vars) }

// Var returns the i-th variable.
func (sp *Space) Var(i int) Var { return sp.vars[i] }

// Stride returns the positional weight of variable i: changing its value
// by d changes the state index by d·Stride(i).
func (sp *Space) Stride(i int) int { return sp.strides[i] }

// VarIndex returns the index of the named variable and whether it exists.
func (sp *Space) VarIndex(name string) (int, bool) {
	i, ok := sp.index[name]
	return i, ok
}

// Vals is a decoded state: one value per variable, in variable order.
type Vals []int

// Encode maps an assignment to its state index. It panics if the assignment
// has the wrong arity or a value out of domain — encoding errors are always
// programming bugs in system definitions, never runtime conditions.
func (sp *Space) Encode(v Vals) int {
	if len(v) != len(sp.vars) {
		panic(fmt.Sprintf("system: Encode arity %d, space has %d vars", len(v), len(sp.vars)))
	}
	s := 0
	for i, x := range v {
		if x < 0 || x >= sp.vars[i].Card {
			panic(fmt.Sprintf("system: value %d out of domain [0,%d) for %q", x, sp.vars[i].Card, sp.vars[i].Name))
		}
		s += x * sp.strides[i]
	}
	return s
}

// Decode writes the assignment for state s into dst (allocating if dst is
// too short) and returns it.
func (sp *Space) Decode(s int, dst Vals) Vals {
	if s < 0 || s >= sp.size {
		panic(fmt.Sprintf("system: state %d out of space [0,%d)", s, sp.size))
	}
	if cap(dst) < len(sp.vars) {
		dst = make(Vals, len(sp.vars))
	}
	dst = dst[:len(sp.vars)]
	for i := range sp.vars {
		dst[i] = s % sp.vars[i].Card
		s /= sp.vars[i].Card
	}
	return dst
}

// StateString renders state s as "x=0 y=true ...".
func (sp *Space) StateString(s int) string {
	var buf [64]byte
	return string(sp.AppendState(buf[:0], s))
}

// AppendState appends StateString(s) to dst and returns the extended
// slice.
func (sp *Space) AppendState(dst []byte, s int) []byte {
	if s < 0 || s >= sp.size {
		panic(fmt.Sprintf("system: state %d out of space [0,%d)", s, sp.size))
	}
	for i, v := range sp.vars {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, v.Name...)
		dst = append(dst, '=')
		if x := s % v.Card; v.Fmt != nil {
			dst = append(dst, v.Fmt(x)...)
		} else {
			dst = strconv.AppendInt(dst, int64(x), 10)
		}
		s /= v.Card
	}
	return dst
}

// SameShape reports whether two spaces have identical variable names and
// cardinalities (and hence identical encodings). Systems can only be
// box-composed when their spaces have the same shape.
func (sp *Space) SameShape(other *Space) bool {
	if sp == other {
		return true
	}
	if sp == nil || other == nil || len(sp.vars) != len(other.vars) {
		return false
	}
	for i := range sp.vars {
		if sp.vars[i].Name != other.vars[i].Name || sp.vars[i].Card != other.vars[i].Card {
			return false
		}
	}
	return true
}
