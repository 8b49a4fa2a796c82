package ring

import (
	"fmt"
	"strings"

	"repro/internal/system"
)

// UTR models the abstract unidirectional token ring used by the full
// version of the paper [4] to derive Dijkstra's K-state system: one
// boolean token t.j per process, circulating 0 → 1 → … → N → 0.
type UTR struct {
	// N is the top process index; tokens move j → j+1 mod N+1.
	N int
	// Space holds t0..tN.
	Space *system.Space

	decls  string // Space as GCL declarations
	tokens string // the token count as a GCL expression
}

// NewUTR builds the unidirectional ring space (n ≥ 2).
func NewUTR(n int) *UTR {
	if n < 2 {
		panic(fmt.Sprintf("ring: UTR needs N ≥ 2, got %d", n))
	}
	vars := names("t", 0, n)
	decls := bools(vars)
	return &UTR{N: n, Space: spaceOf(decls), decls: decls, tokens: count(vars)}
}

// TokenCount counts the tokens held.
func (u *UTR) TokenCount(v system.Vals) int {
	c := 0
	for _, x := range v {
		c += x
	}
	return c
}

// System moves each held token one step around the ring, with the
// unique-token states initial; moving onto a process that already holds
// a token merges the two (the boolean simply stays true).
func (u *UTR) System() *system.System {
	var src strings.Builder
	fmt.Fprintf(&src, "%sinit %s == 1;\n", u.decls, u.tokens)
	for j := 0; j <= u.N; j++ {
		fmt.Fprintf(&src, "action pass%d: t%d -> t%d := false; t%d := true;\n", j, j, j, (j+1)%(u.N+1))
	}
	return compile(fmt.Sprintf("UTR(N=%d)", u.N), src.String())
}

// WU1 creates a token at the bottom when none exists (the unidirectional
// analogue of W1).
func (u *UTR) WU1() *system.System {
	return wrapper(fmt.Sprintf("WU1(N=%d)", u.N),
		fmt.Sprintf("%saction WU1: %s == 0 -> t0 := true;\n", u.decls, u.tokens))
}

// WU2 deletes a non-bottom token while the bottom holds one: extra tokens
// are absorbed when they meet the bottom's. Like W2, it must preempt the
// ring's own moves (PriorityBox) — otherwise a daemon keeps two tokens
// chasing each other at a fixed distance forever.
func (u *UTR) WU2() *system.System {
	var src strings.Builder
	src.WriteString(u.decls)
	for j := 1; j <= u.N; j++ {
		fmt.Fprintf(&src, "action WU2_%d: t0 && t%d -> t%d := false;\n", j, j, j)
	}
	return wrapper(fmt.Sprintf("WU2(N=%d)", u.N), src.String())
}

// Wrapped is the stabilized abstract composition (UTR [] WU1) <] WU2.
func (u *UTR) Wrapped() *system.System {
	return system.PriorityBox(system.Box(u.System(), u.WU1()), u.WU2())
}

// KState models Dijkstra's K-state system: x.j ∈ 0..K−1 at every process;
// the bottom holds the token when x.0 = x.N, any other process when
// x.j ≠ x.(j−1):
//
//	x.0 = x.N       → x.0 := x.0 + 1 mod K    (bottom)
//	x.j ≠ x.(j−1)   → x.j := x.(j−1)          (j ≠ 0)
type KState struct {
	// N is the top process index, K the counter modulus.
	N, K int
	// Space holds x0..xN, each over 0..K−1.
	Space *system.Space

	unique string // the unique-privilege init predicate in GCL
}

// NewKState builds the K-state space (n ≥ 2, k ≥ 2).
func NewKState(n, k int) *KState {
	if n < 2 || k < 2 {
		panic(fmt.Sprintf("ring: KState needs N ≥ 2 and K ≥ 2, got N=%d K=%d", n, k))
	}
	privileged := []string{fmt.Sprintf("x0 == x%d", n)}
	for j := 1; j <= n; j++ {
		privileged = append(privileged, fmt.Sprintf("x%d != x%d", j, j-1))
	}
	return &KState{N: n, K: k, Space: spaceOf(counters("x", n, k)), unique: count(privileged) + " == 1"}
}

// HasToken evaluates the privilege predicate at process j.
func (ks *KState) HasToken(v system.Vals, j int) bool {
	if j == 0 {
		return v[0] == v[ks.N]
	}
	return v[j] != v[j-1]
}

// TokenCount counts privileged processes.
func (ks *KState) TokenCount(v system.Vals) int {
	c := 0
	for j := 0; j <= ks.N; j++ {
		if ks.HasToken(v, j) {
			c++
		}
	}
	return c
}

// Abstraction maps a K-state configuration to the UTR state holding the
// privilege tokens.
func (ks *KState) Abstraction(u *UTR) (*system.Abstraction, error) {
	if u.N != ks.N {
		return nil, fmt.Errorf("ring: abstraction between N=%d and N=%d", ks.N, u.N)
	}
	return system.MapSpaces(ks.Space, u.Space, func(c system.Vals, a system.Vals) {
		for j := 0; j <= ks.N; j++ {
			a[j] = boolToInt(ks.HasToken(c, j))
		}
	})
}

// System is the K-state automaton with unique-token initial states.
func (ks *KState) System() *system.System {
	return compile(fmt.Sprintf("KState(N=%d,K=%d)", ks.N, ks.K), kStateGCL(ks.N, ks.K, ks.unique))
}
