// Package trace implements the sequence-level relations of Section 2 —
// subsequences, convergence isomorphism, destuttering — on finite state
// sequences, plus validity checks tying sequences back to automata. The
// checkers in internal/core decide the relations symbolically over whole
// systems; this package is the ground truth those decisions are tested
// against.
package trace

import (
	"strings"

	"repro/internal/system"
)

// IsSubsequence reports whether c can be obtained from a by deleting zero
// or more elements (order-preserving, multiplicity-respecting).
func IsSubsequence(c, a []int) bool {
	i := 0
	for _, x := range a {
		if i < len(c) && c[i] == x {
			i++
		}
	}
	return i == len(c)
}

// ConvergenceIsomorphic implements the paper's Definition verbatim for
// finite sequences: c is a convergence isomorphism of a iff c is a
// subsequence of a with the same initial state and the same final state.
// (The "finite number of omissions" clause is automatic for finite
// sequences; Omissions exposes the count.) Empty sequences are isomorphic
// only to empty sequences.
func ConvergenceIsomorphic(c, a []int) bool {
	if len(c) == 0 || len(a) == 0 {
		return len(c) == 0 && len(a) == 0
	}
	if c[0] != a[0] || c[len(c)-1] != a[len(a)-1] {
		return false
	}
	return IsSubsequence(c, a)
}

// Omissions returns the number of states dropped from a to obtain c, and
// whether c is a convergence isomorphism of a at all.
func Omissions(c, a []int) (int, bool) {
	if !ConvergenceIsomorphic(c, a) {
		return 0, false
	}
	return len(a) - len(c), true
}

// Destutter removes consecutive duplicate states. It is applied to
// α-mapped concrete computations before comparing them with abstract ones:
// a concrete τ step (Section 6's C3) maps to a repetition of the same
// abstract state.
func Destutter(seq []int) []int {
	if len(seq) == 0 {
		return nil
	}
	out := make([]int, 1, len(seq))
	out[0] = seq[0]
	for _, s := range seq[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// IsPathOf reports whether every adjacent pair of seq is a transition of
// sys. Sequences of length ≤ 1 are trivially paths.
func IsPathOf(sys *system.System, seq []int) bool {
	for i := 0; i+1 < len(seq); i++ {
		if !sys.HasTransition(seq[i], seq[i+1]) {
			return false
		}
	}
	return true
}

// IsComputationOf reports whether seq is a finite computation of sys: a
// path that is maximal, i.e. its last state is terminal. (Infinite
// computations are represented as lassos elsewhere.)
func IsComputationOf(sys *system.System, seq []int) bool {
	if len(seq) == 0 {
		return false
	}
	return IsPathOf(sys, seq) && sys.Terminal(seq[len(seq)-1])
}

// IsComputationFromInit additionally requires seq to start at an initial
// state of sys.
func IsComputationFromInit(sys *system.System, seq []int) bool {
	return IsComputationOf(sys, seq) && sys.IsInit(seq[0])
}

// HasSuffixSatisfying reports whether some suffix of seq satisfies pred,
// and returns the index at which the earliest such suffix starts.
func HasSuffixSatisfying(seq []int, pred func(suffix []int) bool) (int, bool) {
	for i := range seq {
		if pred(seq[i:]) {
			return i, true
		}
	}
	return 0, false
}

// Format renders a sequence using a system's state formatter, e.g.
// "x=0 → x=1 → x=2".
func Format(sys *system.System, seq []int) string {
	parts := make([]string, len(seq))
	for i, s := range seq {
		parts[i] = sys.StateString(s)
	}
	return strings.Join(parts, " → ")
}
