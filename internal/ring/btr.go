// Package ring implements every token-ring system of the paper: the
// abstract bidirectional ring BTR with its stabilization wrappers W1 and
// W2 (Section 3), the 4-state encoding BTR4 with C1 and Dijkstra's 4-state
// system (Section 4), the 3-state encoding with C2 and Dijkstra's 3-state
// system (Section 5), the new 3-state system C3 (Section 6), and the
// unidirectional ring UTR with Dijkstra's K-state system (the technical-
// report derivation), together with the Section 2.3 abstraction functions
// relating the encodings to BTR.
//
// Every automaton is compiled by internal/gcl from guarded-command source
// in the paper's notation, generated per ring size by templates in this
// package. The Go side keeps only views of the state space (token
// predicates, abstraction functions) and the compositions (Box,
// PriorityBox).
//
// Processes are indexed 0..N as in the paper (N+1 processes; 0 is the
// bottom, N the top). All builders take N and require N ≥ 2 so that at
// least one middle process exists.
package ring

import (
	"fmt"
	"strings"

	"repro/internal/system"
)

// BTR models the abstract bidirectional token ring of Section 3.1. Its
// state space has one boolean per defined token variable: ↑t.j ("process j
// received the token from j−1") for j = 1..N, and ↓t.j ("process j
// received the token from j+1") for j = 0..N−1. ↑t.0 and ↓t.N are
// undefined.
type BTR struct {
	// N is the top process index; the ring has N+1 processes.
	N int
	// Space holds variables ut1..utN, dt0..dt(N−1), in that order.
	Space *system.Space

	decls  string // Space as GCL declarations
	tokens string // the token count as a GCL expression
}

// NewBTR builds the BTR state space for top index n.
func NewBTR(n int) *BTR {
	if n < 2 {
		panic(fmt.Sprintf("ring: BTR needs N ≥ 2, got %d", n))
	}
	vars := append(names("ut", 1, n), names("dt", 0, n-1)...)
	decls := bools(vars)
	return &BTR{N: n, Space: spaceOf(decls), decls: decls, tokens: count(vars)}
}

// UpIdx returns the variable index of ↑t.j (j in 1..N).
func (b *BTR) UpIdx(j int) int {
	if j < 1 || j > b.N {
		panic(fmt.Sprintf("ring: ↑t.%d undefined for N=%d", j, b.N))
	}
	return j - 1
}

// DownIdx returns the variable index of ↓t.j (j in 0..N−1).
func (b *BTR) DownIdx(j int) int {
	if j < 0 || j >= b.N {
		panic(fmt.Sprintf("ring: ↓t.%d undefined for N=%d", j, b.N))
	}
	return b.N + j
}

// TokenCount returns the number of token variables set in the state.
func (b *BTR) TokenCount(v system.Vals) int {
	c := 0
	for _, x := range v {
		c += x
	}
	return c
}

// System is BTR's guarded commands, transliterated from Section 3.1,
// with the unique-token states initial ("initially, there is a unique
// token in the system"):
//
//	↑t.N → ↑t.N := false; ↓t.(N−1) := true     (top)
//	↓t.0 → ↓t.0 := false; ↑t.1 := true         (bottom)
//	↑t.j → ↑t.j := false; ↑t.(j+1) := true     (middle, 0 < j < N)
//	↓t.j → ↓t.j := false; ↓t.(j−1) := true     (middle, 0 < j < N)
//
// In the abstract model a process may write its neighbors' state; here
// that simply means actions assign both token variables.
func (b *BTR) System() *system.System {
	var src strings.Builder
	fmt.Fprintf(&src, "%sinit %s == 1;\n", b.decls, b.tokens)
	fmt.Fprintf(&src, "action top: ut%d -> ut%d := false; dt%d := true;\n", b.N, b.N, b.N-1)
	fmt.Fprintf(&src, "action bottom: dt0 -> dt0 := false; ut1 := true;\n")
	for j := 1; j < b.N; j++ {
		fmt.Fprintf(&src, "action up%d: ut%d -> ut%d := false; ut%d := true;\n", j, j, j, j+1)
		fmt.Fprintf(&src, "action down%d: dt%d -> dt%d := false; dt%d := true;\n", j, j, j, j-1)
	}
	return compile(fmt.Sprintf("BTR(N=%d)", b.N), src.String())
}

// W1 is the Section 3.2 wrapper ensuring I1, "there exists at least one
// token": when no token exists, ↑t.N is created.
//
// The paper's guard quantifies over j ≠ N and so does not mention ↑t.N;
// read literally it also fires (as a no-op) when ↑t.N is the only token,
// which under maximal-computation semantics would let a daemon stutter
// forever. We include the ¬↑t.N conjunct, exactly as the paper's own
// refinements do (W1′ and W1″ both carry the corresponding conjunct
// c.N ≠ c.(N−1)⊕1).
func (b *BTR) W1() *system.System {
	return wrapper(fmt.Sprintf("W1(N=%d)", b.N),
		fmt.Sprintf("%saction W1: %s == 0 -> ut%d := true;\n", b.decls, b.tokens, b.N))
}

// W2 is the Section 3.2 wrapper ensuring eventually I2 ∧ I3: a process
// holding both ↑t.j and ↓t.j deletes both, so opposing tokens cancel.
func (b *BTR) W2() *system.System {
	var src strings.Builder
	src.WriteString(b.decls)
	for j := 1; j < b.N; j++ {
		fmt.Fprintf(&src, "action W2_%d: ut%d && dt%d -> ut%d := false; dt%d := false;\n", j, j, j, j, j)
	}
	return wrapper(fmt.Sprintf("W2(N=%d)", b.N), src.String())
}

// Wrapped returns the stabilized composition of Theorem 6. W2 preempts the
// ring's own moves (system.PriorityBox): without that convention, a daemon
// may move opposing tokens through each other forever; WrappedPlain
// exhibits exactly that failure.
func (b *BTR) Wrapped() *system.System {
	return system.PriorityBox(system.Box(b.System(), b.W1()), b.W2())
}

// WrappedPlain is the literal union (BTR [] W1 [] W2) with no priority.
// It is NOT stabilizing to BTR — the experiments surface the token-
// crossing counterexample — and exists to document why PriorityBox is the
// right reading of Section 3.2's W2.
func (b *BTR) WrappedPlain() *system.System {
	return system.BoxAll(b.System(), b.W1(), b.W2())
}
