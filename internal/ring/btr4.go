package ring

import (
	"fmt"
	"strings"

	"repro/internal/mc"
	"repro/internal/system"
)

// FourState models the Section 4 encoding: every process j carries a
// boolean c.j, and every middle process a boolean up.j; up.0 ≡ true and
// up.N ≡ false are constants, not variables. The token variables of BTR
// are simulated by the Section 4 mapping:
//
//	↑t.N ≡ c.N ≠ c.(N−1) ∧ up.(N−1)
//	↓t.0 ≡ c.0 = c.1 ∧ ¬up.1
//	↑t.j ≡ c.j ≠ c.(j−1) ∧ up.(j−1) ∧ ¬up.j     (0 < j < N)
//	↓t.j ≡ c.j = c.(j+1) ∧ ¬up.(j+1) ∧ up.j     (0 < j < N)
type FourState struct {
	// N is the top process index.
	N int
	// Space holds c0..cN then up1..up(N−1).
	Space *system.Space

	vars  []string // Space's variable names
	legit []int    // cached LegitStates
}

// NewFourState builds the 4-state space for top index n (n ≥ 2).
func NewFourState(n int) *FourState {
	if n < 2 {
		panic(fmt.Sprintf("ring: FourState needs N ≥ 2, got %d", n))
	}
	vars := append(names("c", 0, n), names("up", 1, n-1)...)
	return &FourState{N: n, Space: spaceOf(bools(vars)), vars: vars}
}

// CIdx returns the variable index of c.j.
func (f *FourState) CIdx(j int) int {
	if j < 0 || j > f.N {
		panic(fmt.Sprintf("ring: c.%d undefined for N=%d", j, f.N))
	}
	return j
}

// Up reads the (possibly constant) up.j value from a state: up.0 ≡ true,
// up.N ≡ false.
func (f *FourState) Up(v system.Vals, j int) bool {
	switch {
	case j == 0:
		return true
	case j == f.N:
		return false
	case j > 0 && j < f.N:
		return v[f.N+j] == 1
	default:
		panic(fmt.Sprintf("ring: up.%d undefined for N=%d", j, f.N))
	}
}

// HasUpToken evaluates the mapped ↑t.j (j in 1..N).
func (f *FourState) HasUpToken(v system.Vals, j int) bool {
	return v[f.CIdx(j)] != v[f.CIdx(j-1)] && f.Up(v, j-1) && !f.Up(v, j)
}

// HasDownToken evaluates the mapped ↓t.j (j in 0..N−1).
func (f *FourState) HasDownToken(v system.Vals, j int) bool {
	return v[f.CIdx(j)] == v[f.CIdx(j+1)] && !f.Up(v, j+1) && f.Up(v, j)
}

// TokenCount counts mapped tokens.
func (f *FourState) TokenCount(v system.Vals) int {
	c := 0
	for j := 1; j <= f.N; j++ {
		if f.HasUpToken(v, j) {
			c++
		}
	}
	for j := 0; j < f.N; j++ {
		if f.HasDownToken(v, j) {
			c++
		}
	}
	return c
}

// Abstraction builds the Section 2.3 mapping from the 4-state space onto
// (a subset of) BTR's space. It is deliberately not onto: no 4-state
// configuration maps to an abstract state holding both ↑t.j and ↓t.j.
func (f *FourState) Abstraction(b *BTR) (*system.Abstraction, error) {
	if b.N != f.N {
		return nil, fmt.Errorf("ring: abstraction between N=%d and N=%d", f.N, b.N)
	}
	return system.MapSpaces(f.Space, b.Space, func(c system.Vals, a system.Vals) {
		for j := 1; j <= f.N; j++ {
			a[b.UpIdx(j)] = boolToInt(f.HasUpToken(c, j))
		}
		for j := 0; j < f.N; j++ {
			a[b.DownIdx(j)] = boolToInt(f.HasDownToken(c, j))
		}
	})
}

// upVar is up.j as a GCL expression: up.0 ≡ true and up.N ≡ false are
// constants.
func (f *FourState) upVar(j int) string {
	switch j {
	case 0:
		return "true"
	case f.N:
		return "false"
	}
	return fmt.Sprintf("up%d", j)
}

// upToken and downToken are the mapped ↑t.j and ↓t.j as GCL expressions.
func (f *FourState) upToken(j int) string {
	return fmt.Sprintf("c%d != c%d && %s && !%s", j, j-1, f.upVar(j-1), f.upVar(j))
}

func (f *FourState) downToken(j int) string {
	return fmt.Sprintf("c%d == c%d && !%s && %s", j, j+1, f.upVar(j+1), f.upVar(j))
}

// LegitStates returns the coherent encodings of the unique-token abstract
// states: the configurations reachable from the canonical all-false state
// (whose unique token is ↓t.0) under the encoding's own moves. These are
// the initial states of BTR4, C1 and Dijkstra4 — "the initial states of
// BTR4 follow from those of BTR using the mapping" selects, per abstract
// initial state, the encodings that simulate BTR exactly. Unique-token
// encodings outside this set are coherent in token count but would need a
// neighbor repair on the very next step; they are fault states, not
// initial states.
func (f *FourState) LegitStates() []int {
	if f.legit == nil {
		canonical := "init !" + strings.Join(f.vars, " && !") + ";\n"
		f.legit = mc.ReachFromInit(compile("btr4-legit-probe", f.btr4(true, canonical))).Members()
	}
	return f.legit
}

// BTR4 is the abstract-model transliteration of BTR into the 4-state
// encoding: each action updates its own process and additionally writes
// neighbor state where needed so that exactly the intended token movement
// happens (the abstract system model permits writing neighbors). C1 is the
// same system with those neighbor writes commented out.
func (f *FourState) BTR4() *system.System {
	return compile(fmt.Sprintf("BTR4(N=%d)", f.N), f.btr4(true, "")).WithInit(f.LegitStates())
}

// C1 is the Section 4.2 concrete refinement of BTR4: the neighbor-writing
// clauses are dropped because the concrete model only writes own state.
func (f *FourState) C1() *system.System {
	return compile(fmt.Sprintf("C1(N=%d)", f.N), f.btr4(false, "")).WithInit(f.LegitStates())
}

// btr4 is the source of BTR4, or with neighborWrites unset of C1, with
// the given init line:
//
//	↑t.N → c.N := c.(N−1)                    (top: ↓t.(N−1) appears by the mapping)
//	↓t.0 → c.0 := ¬c.0                       (bottom: creates ↑t.1)
//	↑t.j → c.j := c.(j−1); up.j := true      (middle, pass up)
//	↓t.j → up.j := false                     (middle, pass down)
//
// Passing up, BTR4 also makes ↑t.(j+1)'s remaining conjuncts hold at the
// neighbor: c.(j+1) ≠ c.j, which for booleans is c.(j+1) := ¬c.(j−1) in
// terms of the pre-state, and ¬up.(j+1) unless j+1 = N. Passing down, it
// makes ↓t.(j−1)'s hold: c.(j−1) := c.j, and up.(j−1) unless j−1 = 0.
func (f *FourState) btr4(neighborWrites bool, init string) string {
	var b strings.Builder
	b.WriteString(bools(f.vars) + init)
	fmt.Fprintf(&b, "action top: %s -> c%d := c%d;\n", f.upToken(f.N), f.N, f.N-1)
	fmt.Fprintf(&b, "action bottom: %s -> c0 := !c0;\n", f.downToken(0))
	for j := 1; j < f.N; j++ {
		fmt.Fprintf(&b, "action up%d: %s -> c%d := c%d; up%d := true;", j, f.upToken(j), j, j-1, j)
		if neighborWrites {
			fmt.Fprintf(&b, " c%d := !c%d;", j+1, j-1)
			if j+1 < f.N {
				fmt.Fprintf(&b, " up%d := false;", j+1)
			}
		}
		fmt.Fprintf(&b, "\naction down%d: %s -> up%d := false;", j, f.downToken(j), j)
		if neighborWrites {
			fmt.Fprintf(&b, " c%d := c%d;", j-1, j)
			if j-1 > 0 {
				fmt.Fprintf(&b, " up%d := true;", j-1)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Dijkstra4 is Dijkstra's 4-state stabilizing token-ring system, obtained
// in Section 4.2 by relaxing the guards of (C1 [] W1′ [] W2′)
// (Dijkstra4GCL's actions, with LegitStates initial):
//
//	c.(N−1) ≠ c.N                      → c.N := c.(N−1)
//	c.1 = c.0 ∧ ¬up.1                  → c.0 := ¬c.0
//	c.(j−1) ≠ c.j                      → c.j := c.(j−1); up.j := true
//	c.(j+1) = c.j ∧ ¬up.(j+1) ∧ up.j   → up.j := false
func (f *FourState) Dijkstra4() *system.System {
	return compile(fmt.Sprintf("Dijkstra4(N=%d)", f.N), Dijkstra4GCL(f.N)).WithInit(f.LegitStates())
}

// Dijkstra4GCL emits Dijkstra's 4-state system for top index n as
// guarded-command source, starting from the all-false configuration.
func Dijkstra4GCL(n int) string {
	if n < 2 {
		panic(fmt.Sprintf("ring: Dijkstra4GCL needs N ≥ 2, got %d", n))
	}
	f := &FourState{N: n} // no Space: upVar needs N alone
	vars := append(names("c", 0, n), names("up", 1, n-1)...)
	var b strings.Builder
	b.WriteString(bools(vars) + "init !" + strings.Join(vars, " && !") + ";\n")
	fmt.Fprintf(&b, "action top: c%d != c%d -> c%d := c%d;\n", f.N-1, f.N, f.N, f.N-1)
	fmt.Fprintf(&b, "action bottom: c1 == c0 && !%s -> c0 := !c0;\n", f.upVar(1))
	for j := 1; j < f.N; j++ {
		fmt.Fprintf(&b, "action up%d: c%d != c%d -> c%d := c%d; up%d := true;\n", j, j-1, j, j, j-1, j)
		fmt.Fprintf(&b, "action down%d: c%d == c%d && !%s && up%d -> up%d := false;\n",
			j, j+1, j, f.upVar(j+1), j, j)
	}
	return b.String()
}

// W1Prime is the mapped wrapper W1′ of Section 4.1. Its guard already
// implies ↑t.N, so its effect — make ↑t.N true: c.N ≠ c.(N−1) and
// up.(N−1) — never changes the state: the paper calls it "vacuously
// implemented". The returned system consequently contains only
// self-loops; VerifyW1PrimeVacuous checks that claim, and the composed
// systems omit W1′ just as the paper does.
func (f *FourState) W1Prime() *system.System {
	guard := names("up", 1, f.N-1)
	guard = append(guard, fmt.Sprintf("c%d != c%d", f.N-1, f.N))
	return wrapper(fmt.Sprintf("W1'(N=%d)", f.N), fmt.Sprintf("%saction W1p: %s -> c%d := !c%d; up%d := true;\n",
		bools(f.vars), strings.Join(guard, " && "), f.N, f.N-1, f.N-1))
}

// W2Prime is the mapped wrapper W2′ of Section 4.1: under the mapping,
// ↑t.j ∧ ↓t.j ≡ false, so the wrapper, which would delete both tokens,
// has no enabled transition anywhere.
func (f *FourState) W2Prime() *system.System {
	var b strings.Builder
	b.WriteString(bools(f.vars))
	for j := 1; j < f.N; j++ {
		fmt.Fprintf(&b, "action W2p_%d: %s && %s -> c%d := c%d;\n", j, f.upToken(j), f.downToken(j), j, j-1)
	}
	return wrapper(fmt.Sprintf("W2'(N=%d)", f.N), b.String())
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
