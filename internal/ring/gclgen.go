package ring

import (
	"fmt"
	"strings"

	"repro/internal/gcl"
	"repro/internal/system"
)

// compile compiles ring source into its automaton. The templates are
// well-formed by construction, so a failure is a bug in a template.
func compile(name, src string) *system.System {
	c, err := gcl.Compile(name, src)
	if err != nil {
		panic(fmt.Sprintf("ring: %v\n%s", err, src))
	}
	return c.System
}

// wrapper compiles a wrapper's source, which has no init predicate, into
// an automaton with no initial states (the wrapper convention: boxing
// adds none).
func wrapper(name, src string) *system.System {
	return compile(name, src).WithInit(nil)
}

// compileLabeled compiles ring source keeping action identity.
func compileLabeled(name, src string) (*gcl.Program, *system.LabeledSystem) {
	prog, err := gcl.Parse(src)
	var ls *system.LabeledSystem
	if err == nil {
		ls, err = gcl.CompileLabeled(name, prog)
	}
	if err != nil {
		panic(fmt.Sprintf("ring: %s: %v\n%s", name, err, src))
	}
	return prog, ls
}

// spaceOf is the state space that declarations decls produce.
func spaceOf(decls string) *system.Space {
	prog, err := gcl.Parse(decls)
	if err != nil {
		panic(fmt.Sprintf("ring: %v\n%s", err, decls))
	}
	return gcl.SpaceOf(prog)
}

// names lists prefix+lo .. prefix+hi.
func names(prefix string, lo, hi int) []string {
	var out []string
	for j := lo; j <= hi; j++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, j))
	}
	return out
}

// bools declares each name as a boolean variable.
func bools(vars []string) string {
	var b strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&b, "var %s : bool;\n", v)
	}
	return b.String()
}

// counters declares prefix0..prefixN over 0..k−1.
func counters(prefix string, n, k int) string {
	var b strings.Builder
	for j := 0; j <= n; j++ {
		fmt.Fprintf(&b, "var %s%d : 0..%d;\n", prefix, j, k-1)
	}
	return b.String()
}

// count is the number of the boolean expressions conds that hold.
func count(conds []string) string {
	terms := make([]string, len(conds))
	for i, c := range conds {
		terms[i] = fmt.Sprintf("(%s ? 1 : 0)", c)
	}
	return strings.Join(terms, " + ")
}

// allZero is the canonical initial configuration of the published
// programs: prefix0..prefixN all 0.
func allZero(prefix string, n int) string {
	eqs := make([]string, 0, n+1)
	for j := 0; j <= n; j++ {
		eqs = append(eqs, fmt.Sprintf("%s%d == 0", prefix, j))
	}
	return strings.Join(eqs, " && ")
}

// Dijkstra3GCL emits Dijkstra's 3-state system for top index n as
// guarded-command source in the paper's notation, compilable by
// internal/gcl. It pins one canonical initial configuration, all
// counters equal; ThreeState.Dijkstra3 compiles the same actions with
// the unique-token initial states.
func Dijkstra3GCL(n int) string {
	if n < 2 {
		panic(fmt.Sprintf("ring: Dijkstra3GCL needs N ≥ 2, got %d", n))
	}
	return dijkstra3GCL(n, allZero("c", n))
}

func dijkstra3GCL(n int, init string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Dijkstra's 3-state token ring, N = %d (%d processes).\n", n, n+1)
	fmt.Fprintf(&b, "%s\ninit %s;\n\n", counters("c", n, 3), init)
	fmt.Fprintf(&b, "action bottom: c1 == (c0 + 1) %% 3 -> c0 := (c1 + 1) %% 3;\n")
	for j := 1; j < n; j++ {
		fmt.Fprintf(&b, "action up%d: c%d == (c%d + 1) %% 3 -> c%d := c%d;\n", j, j-1, j, j, j-1)
		fmt.Fprintf(&b, "action dn%d: c%d == (c%d + 1) %% 3 -> c%d := c%d;\n", j, j+1, j, j, j+1)
	}
	fmt.Fprintf(&b, "action top: c%d == c0 && (c%d + 1) %% 3 != c%d -> c%d := (c%d + 1) %% 3;\n",
		n-1, n-1, n, n, n-1)
	return b.String()
}

// AggressiveThreeGCL emits the final Section 6 system — C3 with the
// aggressive W2′ embedded — as guarded-command source, using ternary
// conditionals for the paper's if-then-else cascades. By the K = 3
// argument it compiles to the same automaton as Dijkstra3.
func AggressiveThreeGCL(n int) string {
	if n < 2 {
		panic(fmt.Sprintf("ring: AggressiveThreeGCL needs N ≥ 2, got %d", n))
	}
	return aggressiveThreeGCL(n, allZero("c", n))
}

func aggressiveThreeGCL(n int, init string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Section 6's aggressive 3-state system, N = %d.\n", n)
	fmt.Fprintf(&b, "%s\ninit %s;\n\n", counters("c", n, 3), init)
	fmt.Fprintf(&b, "action bottom: c1 == (c0 + 1) %% 3 -> c0 := (c1 + 1) %% 3;\n")
	for j := 1; j < n; j++ {
		lm, c, rp := j-1, j, j+1
		fmt.Fprintf(&b,
			"action up%d: c%d == (c%d + 1) %% 3 -> c%d := (c%d == c%d) ? c%d : ((c%d == (c%d + 1) %% 3) ? c%d : (c%d + 1) %% 3);\n",
			j, lm, c, c, lm, rp, lm, c, rp, lm, rp)
		fmt.Fprintf(&b,
			"action dn%d: c%d == (c%d + 1) %% 3 -> c%d := (c%d == c%d) ? c%d : ((c%d == (c%d + 1) %% 3) ? c%d : (c%d + 1) %% 3);\n",
			j, rp, c, c, lm, rp, rp, c, lm, rp, lm)
	}
	fmt.Fprintf(&b, "action top: c%d == c0 && (c%d + 1) %% 3 != c%d -> c%d := (c%d + 1) %% 3;\n",
		n-1, n-1, n, n, n-1)
	return b.String()
}

// NewThreeGCL emits Section 6's new 3-state system for top index n: C3's
// own-write token passing, W1″ at the top, and W2′ preempting a middle
// process's passing actions at that process only, not globally as in
// ThreeState.NewThree (so, for N ≥ 3, with more transitions).
func NewThreeGCL(n int) string {
	if n < 2 {
		panic(fmt.Sprintf("ring: NewThreeGCL needs N ≥ 2, got %d", n))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Section 6's new 3-state token ring with local W2' priority, N = %d.\n", n)
	fmt.Fprintf(&b, "%s\ninit %s;\n\n", counters("c", n, 3), allZero("c", n))
	fmt.Fprintf(&b, "action bottom: %s -> c0 := (c1 + 1) %% 3;\n", down3(0))
	for j := 1; j < n; j++ {
		fmt.Fprintf(&b, "action up%d: %s && !(%s) -> c%d := (c%d + 1) %% 3;\n", j, up3(j), down3(j), j, j+1)
		fmt.Fprintf(&b, "action down%d: %s && !(%s) -> c%d := (c%d + 1) %% 3;\n", j, down3(j), up3(j), j, j-1)
		fmt.Fprintf(&b, "action W2p%d: %s && %s -> c%d := c%d;\n", j, up3(j), down3(j), j, j-1)
	}
	fmt.Fprintf(&b, "action top: %s -> c%d := (c%d + 1) %% 3;\n", up3(n), n, n-1)
	return b.String() + w1DoublePrime(n)
}

// KStateGCL emits Dijkstra's K-state system for top index n and modulus k
// as guarded-command source, with all counters 0 initially.
func KStateGCL(n, k int) string {
	if n < 2 || k < 2 {
		panic(fmt.Sprintf("ring: KStateGCL needs N ≥ 2 and K ≥ 2, got N=%d K=%d", n, k))
	}
	return kStateGCL(n, k, allZero("x", n))
}

func kStateGCL(n, k int, init string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Dijkstra's K-state token ring, N = %d, K = %d.\n", n, k)
	fmt.Fprintf(&b, "%s\ninit %s;\n\n", counters("x", n, k), init)
	fmt.Fprintf(&b, "action bottom: x0 == x%d -> x0 := (x0 + 1) %% %d;\n", n, k)
	for j := 1; j <= n; j++ {
		fmt.Fprintf(&b, "action copy%d: x%d != x%d -> x%d := x%d;\n", j, j, j-1, j, j-1)
	}
	return b.String()
}
