package ring

import (
	"fmt"
	"strings"

	"repro/internal/system"
)

// ThreeState models the Section 5/6 encoding: every process j carries a
// 3-valued counter c.j, and the BTR token variables are simulated by
//
//	↑t.j ≡ c.(j−1) = c.j ⊕ 1     (j in 1..N; ⊕ is addition mod 3)
//	↓t.j ≡ c.(j+1) = c.j ⊕ 1     (j in 0..N−1)
type ThreeState struct {
	// N is the top process index.
	N int
	// Space holds c0..cN, each over 0..2.
	Space *system.Space

	decls  string // Space as GCL declarations
	unique string // the unique-token init predicate in GCL
}

// NewThreeState builds the 3-state space for top index n (n ≥ 2).
func NewThreeState(n int) *ThreeState {
	if n < 2 {
		panic(fmt.Sprintf("ring: ThreeState needs N ≥ 2, got %d", n))
	}
	t := &ThreeState{N: n, decls: counters("c", n, 3)}
	t.Space = spaceOf(t.decls)
	var tokens []string
	for j := 1; j <= n; j++ {
		tokens = append(tokens, up3(j))
	}
	for j := 0; j < n; j++ {
		tokens = append(tokens, down3(j))
	}
	t.unique = count(tokens) + " == 1"
	return t
}

// inc3 is ⊕1 modulo 3.
func inc3(x int) int { return (x + 1) % 3 }

// up3 and down3 are the mapped ↑t.j and ↓t.j as GCL expressions.
func up3(j int) string   { return fmt.Sprintf("c%d == (c%d + 1) %% 3", j-1, j) }
func down3(j int) string { return fmt.Sprintf("c%d == (c%d + 1) %% 3", j+1, j) }

// HasUpToken evaluates the mapped ↑t.j (j in 1..N).
func (t *ThreeState) HasUpToken(v system.Vals, j int) bool {
	return v[j-1] == inc3(v[j])
}

// HasDownToken evaluates the mapped ↓t.j (j in 0..N−1).
func (t *ThreeState) HasDownToken(v system.Vals, j int) bool {
	return v[j+1] == inc3(v[j])
}

// TokenCount counts mapped tokens.
func (t *ThreeState) TokenCount(v system.Vals) int {
	c := 0
	for j := 1; j <= t.N; j++ {
		if t.HasUpToken(v, j) {
			c++
		}
	}
	for j := 0; j < t.N; j++ {
		if t.HasDownToken(v, j) {
			c++
		}
	}
	return c
}

// Abstraction builds the mapping from the 3-state space onto (a subset of)
// BTR's space.
func (t *ThreeState) Abstraction(b *BTR) (*system.Abstraction, error) {
	if b.N != t.N {
		return nil, fmt.Errorf("ring: abstraction between N=%d and N=%d", t.N, b.N)
	}
	return system.MapSpaces(t.Space, b.Space, func(c system.Vals, a system.Vals) {
		for j := 1; j <= t.N; j++ {
			a[b.UpIdx(j)] = boolToInt(t.HasUpToken(c, j))
		}
		for j := 0; j < t.N; j++ {
			a[b.DownIdx(j)] = boolToInt(t.HasDownToken(c, j))
		}
	})
}

// ring is the source of a 3-state ring with the unique-token states
// initial: the endpoint actions, which write only their own state, and
// per middle process j a pass-up and a pass-down action whose
// assignments up(j) and down(j) return.
func (t *ThreeState) ring(up, down func(j int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%sinit %s;\n", t.decls, t.unique)
	fmt.Fprintf(&b, "action top: %s -> c%d := (c%d + 1) %% 3;\n", up3(t.N), t.N, t.N-1)
	fmt.Fprintf(&b, "action bottom: %s -> c0 := (c1 + 1) %% 3;\n", down3(0))
	for j := 1; j < t.N; j++ {
		fmt.Fprintf(&b, "action up%d: %s -> %s;\n", j, up3(j), up(j))
		fmt.Fprintf(&b, "action down%d: %s -> %s;\n", j, down3(j), down(j))
	}
	return b.String()
}

// BTR3 is the abstract-model transliteration of BTR into the 3-state
// encoding (Section 5's first listing). The middle actions write one
// neighbor — permitted in the abstract model — so that the passed token
// materializes at the neighbor:
//
//	c.(N−1) = c.N⊕1 → c.N := c.(N−1)⊕1                       (top)
//	c.1 = c.0⊕1     → c.0 := c.1⊕1                           (bottom)
//	c.(j−1) = c.j⊕1 → c.j := c.(j−1); c.(j+1) := c.j ⊖ 1     (middle, pass up)
//	c.(j+1) = c.j⊕1 → c.j := c.(j+1); c.(j−1) := c.j ⊖ 1     (middle, pass down)
//
// The neighbor write reads the updated c.j (sequential reading), so after
// passing up, ↑t.(j+1) ≡ c.j = c.(j+1)⊕1 holds by construction. GCL
// assignments are simultaneous, so the source substitutes c.(j−1) (or
// c.(j+1)) for the new c.j.
func (t *ThreeState) BTR3() *system.System {
	return compile(fmt.Sprintf("BTR3(N=%d)", t.N), t.btr3())
}

func (t *ThreeState) btr3() string {
	return t.ring(
		func(j int) string { return fmt.Sprintf("c%d := c%d; c%d := (c%d + 2) %% 3", j, j-1, j+1, j-1) },
		func(j int) string { return fmt.Sprintf("c%d := c%d; c%d := (c%d + 2) %% 3", j, j+1, j-1, j+1) })
}

// C2 is the Section 5.2 concrete refinement of BTR3: the neighbor writes
// are commented out; a middle process copies the counter the token came
// from.
func (t *ThreeState) C2() *system.System {
	return compile(fmt.Sprintf("C2(N=%d)", t.N), t.ring(
		func(j int) string { return fmt.Sprintf("c%d := c%d", j, j-1) },
		func(j int) string { return fmt.Sprintf("c%d := c%d", j, j+1) }))
}

// C3 is the Section 6 alternative refinement: a middle process implements
// token passing by writing only its own counter as a function of the
// destination neighbor; in illegitimate states it may take τ (stuttering)
// steps instead of compressing:
//
//	c.(j−1) = c.j⊕1 → c.j := c.(j+1)⊕1    (pass up: creates ↑t.(j+1) directly)
//	c.(j+1) = c.j⊕1 → c.j := c.(j−1)⊕1    (pass down: creates ↓t.(j−1) directly)
func (t *ThreeState) C3() *system.System {
	return compile(fmt.Sprintf("C3(N=%d)", t.N), t.ring(
		func(j int) string { return fmt.Sprintf("c%d := (c%d + 1) %% 3", j, j+1) },
		func(j int) string { return fmt.Sprintf("c%d := (c%d + 1) %% 3", j, j-1) }))
}

// W1DoublePrime is the local wrapper W1″ of Section 5.1, the implementable
// approximation of the global W1′ at process N:
//
//	c.(N−1) = c.0 ∧ c.N ≠ c.(N−1)⊕1 → c.N := c.(N−1)⊕1
func (t *ThreeState) W1DoublePrime() *system.System {
	return wrapper(fmt.Sprintf("W1''(N=%d)", t.N), t.decls+w1DoublePrime(t.N))
}

func w1DoublePrime(n int) string {
	return fmt.Sprintf("action W1pp: c%d == c0 && c%d != (c%d + 1) %% 3 -> c%d := (c%d + 1) %% 3;\n",
		n-1, n, n-1, n, n-1)
}

// W1PrimeGlobal is the global wrapper W1′ of Section 5.1, the direct image
// of W1 under the mapping:
//
//	(∀j,k : j,k ≠ N : c.j = c.k) ∧ c.N ≠ c.(N−1)⊕1 → c.N := c.(N−1)⊕1
func (t *ThreeState) W1PrimeGlobal() *system.System {
	var guard []string
	for j := 1; j < t.N; j++ {
		guard = append(guard, fmt.Sprintf("c%d == c0", j))
	}
	guard = append(guard, fmt.Sprintf("c%d != (c%d + 1) %% 3", t.N, t.N-1))
	return wrapper(fmt.Sprintf("W1'(N=%d)", t.N), fmt.Sprintf("%saction W1p: %s -> c%d := (c%d + 1) %% 3;\n",
		t.decls, strings.Join(guard, " && "), t.N, t.N-1))
}

// W2Prime is the Section 5.1 refinement of W2: a middle process holding
// both tokens (c.(j−1) = c.j⊕1 ∧ c.(j+1) = c.j⊕1) deletes both by copying
// c.(j−1).
func (t *ThreeState) W2Prime() *system.System {
	return wrapper(fmt.Sprintf("W2'(N=%d)", t.N), t.decls+t.w2Prime())
}

func (t *ThreeState) w2Prime() string {
	var b strings.Builder
	for j := 1; j < t.N; j++ {
		fmt.Fprintf(&b, "action W2p_%d: %s && %s -> c%d := c%d;\n", j, up3(j), down3(j), j, j-1)
	}
	return b.String()
}

// Lemma9Labeled is the Lemma 9 composition with action identity
// preserved, for fairness-aware analysis: (BTR3 [] W1″) <] W2′ where each
// guarded command is a distinct schedulable action.
func (t *ThreeState) Lemma9Labeled() *system.LabeledSystem {
	_, btr3 := compileLabeled(fmt.Sprintf("BTR3(N=%d)", t.N), t.btr3())
	_, w1 := compileLabeled(fmt.Sprintf("W1''(N=%d)", t.N), t.decls+"init false;\n"+w1DoublePrime(t.N))
	_, w2 := compileLabeled(fmt.Sprintf("W2'(N=%d)", t.N), t.decls+"init false;\n"+t.w2Prime())
	return system.PriorityBoxLabeled(system.BoxLabeled(btr3, w1), w2)
}

// Dijkstra3 is Dijkstra's 3-state stabilizing token-ring system as listed
// at the end of Section 5.2 (Dijkstra3GCL's actions, with the
// unique-token states initial):
//
//	c.(N−1) = c.0 ∧ c.(N−1)⊕1 ≠ c.N → c.N := c.(N−1)⊕1   (top)
//	c.1 = c.0⊕1                      → c.0 := c.1⊕1       (bottom)
//	c.(j−1) = c.j⊕1                  → c.j := c.(j−1)     (middle)
//	c.(j+1) = c.j⊕1                  → c.j := c.(j+1)     (middle)
func (t *ThreeState) Dijkstra3() *system.System {
	return compile(fmt.Sprintf("Dijkstra3(N=%d)", t.N), dijkstra3GCL(t.N, t.unique))
}

// Lemma9System is the stabilized abstract composition of Lemma 9,
// (BTR3 [] W1″) <] W2′. As with Theorem 6, the deletion wrapper must
// preempt the ring's moves: under the plain union, an opposing-token
// collision pair can be carried around the ring forever by the processes'
// own actions without W2′ ever firing (the experiments exhibit the
// two-state loop at N = 3).
func (t *ThreeState) Lemma9System() *system.System {
	return system.PriorityBox(system.Box(t.BTR3(), t.W1DoublePrime()), t.W2Prime())
}

// ComposedC2 is the Section 5.2 composition (C2 [] W1″) <] W2′, again with
// the deletion wrapper preempting.
func (t *ThreeState) ComposedC2() *system.System {
	return system.PriorityBox(system.Box(t.C2(), t.W1DoublePrime()), t.W2Prime())
}

// NewThree is the Section 6 "new 3-state stabilizing token-ring":
// (C3 [] W1″) <] W2′, with C3's τ self-loops stripped (a daemon spinning
// forever on a no-op is indistinguishable from not scheduling it; the
// state sequence is unchanged).
func (t *ThreeState) NewThree() *system.System {
	composed := system.PriorityBox(system.Box(t.C3(), t.W1DoublePrime()), t.W2Prime())
	return composed.StripSelfLoops().Rename(fmt.Sprintf("NewThree(N=%d)", t.N))
}

// AggressiveThree is the final Section 6 system: C3 refined further with a
// more aggressive W2′ that deletes ↑t.j when ↑t.(j+1) also holds (and
// symmetrically for ↓), written with the paper's if-then-else cascade
// (AggressiveThreeGCL's actions, with the unique-token states initial).
// Because K = 3, every branch of the middle actions collapses to
// Dijkstra's assignments; VerifyAggressiveEqualsDijkstra3 machine-checks
// that the automaton equals Dijkstra3's.
func (t *ThreeState) AggressiveThree() *system.System {
	return compile(fmt.Sprintf("AggressiveThree(N=%d)", t.N), aggressiveThreeGCL(t.N, t.unique))
}
