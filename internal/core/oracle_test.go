package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/ring"
	"repro/internal/system"
)

// The verdict oracle. The reference below is the stabilization procedure
// as it stood before the one-sweep condensation: its own Tarjan with a
// slice per component, a cyclic-component pass, a bad-core pass and
// backward reachability over a predecessor index. The checker under test
// must agree with it field for field on every input.

// refSCCs is a recursive-free Tarjan returning components in emission
// order (sinks first) and each state's component, −1 outside within.
func refSCCs(sys *system.System, within *bitset.Set) ([][]int, []int) {
	n := sys.NumStates()
	index, low, comp := make([]int, n), make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	in := func(s int) bool { return within == nil || within.Has(s) }
	var stack []int
	var comps [][]int
	next := 0
	type frame struct{ s, ei int }
	for root := 0; root < n; root++ {
		if index[root] != -1 || !in(root) {
			continue
		}
		call := []frame{{s: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			succ := sys.Succ(f.s)
			advanced := false
			for f.ei < len(succ) {
				t := succ[f.ei]
				f.ei++
				if !in(t) {
					continue
				}
				if index[t] == -1 {
					index[t], low[t] = next, next
					next++
					stack = append(stack, t)
					onStack[t] = true
					call = append(call, frame{s: t})
					advanced = true
					break
				}
				if onStack[t] && index[t] < low[f.s] {
					low[f.s] = index[t]
				}
			}
			if advanced {
				continue
			}
			if low[f.s] == index[f.s] {
				var c []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(comps)
					c = append(c, w)
					if w == f.s {
						break
					}
				}
				comps = append(comps, c)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if p := call[len(call)-1].s; low[f.s] < low[p] {
					low[p] = low[f.s]
				}
			}
		}
	}
	return comps, comp
}

// refFindCycleWithin returns the first cyclic component's cycle, walking
// the component from its first emitted member.
func refFindCycleWithin(sys *system.System, within *bitset.Set) []int {
	comps, comp := refSCCs(sys, within)
	for _, c := range comps {
		if len(c) == 1 {
			if sys.HasTransition(c[0], c[0]) {
				return []int{c[0]}
			}
			continue
		}
		pos := map[int]int{}
		var walk []int
		for s := c[0]; ; {
			if at, seen := pos[s]; seen {
				return walk[at:]
			}
			pos[s] = len(walk)
			walk = append(walk, s)
			for _, t := range sys.Succ(s) {
				if (within == nil || within.Has(t)) && comp[t] == comp[c[0]] {
					s = t
					break
				}
			}
		}
	}
	return nil
}

// refCanReach is backward reachability over a predecessor index.
func refCanReach(sys *system.System, target *bitset.Set) *bitset.Set {
	pred := make([][]int, sys.NumStates())
	for s := 0; s < sys.NumStates(); s++ {
		for _, t := range sys.Succ(s) {
			pred[t] = append(pred[t], s)
		}
	}
	seen := target.Clone()
	stack := target.Members()
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[s] {
			if !seen.Has(p) {
				seen.Add(p)
				stack = append(stack, p)
			}
		}
	}
	return seen
}

func refAlphaOf(c, a *system.System, ab *system.Abstraction) (*system.Abstraction, bool, error) {
	if ab == nil {
		if c.NumStates() != a.NumStates() {
			return nil, false, fmt.Errorf("core: %q and %q have different state spaces (%d vs %d) and no abstraction was given",
				c.Name(), a.Name(), c.NumStates(), a.NumStates())
		}
		return system.Identity(c.NumStates()), false, nil
	}
	if ab.NumConcrete() != c.NumStates() || ab.NumAbstract() != a.NumStates() {
		return nil, false, fmt.Errorf("core: abstraction shape (%d→%d) does not match systems (%d→%d)",
			ab.NumConcrete(), ab.NumAbstract(), c.NumStates(), a.NumStates())
	}
	return ab, true, nil
}

func refDescribeBadAnchor(a *system.System, as int, legit *bitset.Set) string {
	if legit != nil && !legit.Has(as) {
		if !a.Terminal(as) {
			return "neither terminal in nor reachable in " + a.Name()
		}
		return "not reachable from the initial states of " + a.Name()
	}
	return "not terminal in " + a.Name()
}

func refWitnessTo(c *system.System, target int) []int {
	if p := mc.PathFromInit(c, target); p != nil {
		return p
	}
	return []int{target}
}

func refStutterCycles(c, a *system.System, alpha *system.Abstraction) (core.Verdict, bool) {
	b := system.NewBuilder("stutter", c.NumStates())
	any := false
	for s := 0; s < c.NumStates(); s++ {
		as := alpha.Of(s)
		if a.HasTransition(as, as) {
			continue
		}
		for _, t := range c.Succ(s) {
			if alpha.Of(t) == as {
				b.AddTransition(s, t)
				any = true
			}
		}
	}
	if !any {
		return core.Verdict{}, false
	}
	cyc := refFindCycleWithin(b.Build(), bitset.Full(c.NumStates()))
	if cyc == nil || a.Terminal(alpha.Of(cyc[0])) {
		return core.Verdict{}, false
	}
	img := alpha.Of(cyc[0])
	return core.Verdict{
		Reason: fmt.Sprintf("pure-stutter cycle at abstract state %s, which is not terminal in %s: the destuttered image of the looping computation is not maximal",
			a.StateString(img), a.Name()),
		Witness: refWitnessTo(c, cyc[0]), WitnessLoop: cyc,
	}, true
}

// refCycleThrough is the witness cycle inside s's component.
func refCycleThrough(c *system.System, comp []int, s int) []int {
	members := bitset.New(c.NumStates())
	for t := 0; t < c.NumStates(); t++ {
		if comp[t] == comp[s] {
			members.Add(t)
		}
	}
	return refFindCycleWithin(c, members)
}

func refFail(relation, reason string, witness, loop []int) core.Verdict {
	return core.Verdict{Relation: relation, Reason: reason, Witness: witness, WitnessLoop: loop}
}

// refSuffixTracking is the reference finitely-many-bad-events check.
func refSuffixTracking(relation string, c, a *system.System, ab *system.Abstraction, legit *bitset.Set) *core.StabilizationReport {
	rep := &core.StabilizationReport{}
	alpha, stutterOK, err := refAlphaOf(c, a, ab)
	if err != nil {
		rep.Verdict = refFail(relation, err.Error(), nil, nil)
		return rep
	}
	badState := func(s int) bool { return legit != nil && !legit.Has(alpha.Of(s)) }
	badEdge := func(s, t int) bool {
		as, at := alpha.Of(s), alpha.Of(t)
		return !a.HasTransition(as, at) && !(stutterOK && as == at)
	}
	for s := 0; s < c.NumStates(); s++ {
		if !c.Terminal(s) {
			continue
		}
		if as := alpha.Of(s); !a.Terminal(as) || badState(s) {
			rep.Verdict = refFail(relation,
				fmt.Sprintf("the one-state computation at terminal %s has no valid suffix: α-image %s is %s",
					c.StateString(s), a.StateString(as), refDescribeBadAnchor(a, as, legit)),
				[]int{s}, nil)
			return rep
		}
	}
	comps, comp := refSCCs(c, nil)
	cyclic := make([]bool, len(comps))
	for i, m := range comps {
		cyclic[i] = len(m) > 1 || c.HasTransition(m[0], m[0])
	}
	for s := 0; s < c.NumStates(); s++ {
		if badState(s) && cyclic[comp[s]] {
			rep.Verdict = refFail(relation,
				fmt.Sprintf("state %s (α-image outside %s's reachable region) lies on a cycle: a computation revisits it forever and no suffix escapes it",
					c.StateString(s), a.Name()),
				[]int{s}, refCycleThrough(c, comp, s))
			return rep
		}
		for _, t := range c.Succ(s) {
			if badEdge(s, t) && comp[s] == comp[t] {
				rep.Verdict = refFail(relation,
					fmt.Sprintf("step %s → %s does not track %s and lies on a cycle: a computation incurs it infinitely often",
						c.StateString(s), c.StateString(t), a.Name()),
					[]int{s, t}, refCycleThrough(c, comp, s))
				return rep
			}
		}
	}
	if stutterOK {
		if v, bad := refStutterCycles(c, a, alpha); bad {
			v.Relation = relation
			rep.Verdict = v
			return rep
		}
	}
	badCore := bitset.New(c.NumStates())
	for s := 0; s < c.NumStates(); s++ {
		if badState(s) {
			badCore.Add(s)
		}
		for _, t := range c.Succ(s) {
			if badEdge(s, t) {
				badCore.Add(s)
			}
		}
	}
	good := refCanReach(c, badCore).Complement()
	rep.Legitimate = good.Members()
	rep.Verdict = core.Verdict{Holds: true, Relation: relation,
		Reason: fmt.Sprintf("every computation has a suffix tracking %s; %d of %d states are legitimate (no bad event reachable)",
			a.Name(), good.Count(), c.NumStates())}
	return rep
}

func refStabilizing(c, a *system.System, ab *system.Abstraction) *core.StabilizationReport {
	legit := mc.ReachFromInit(a)
	rep := refSuffixTracking(fmt.Sprintf("%s is stabilizing to %s", c.Name(), a.Name()), c, a, ab, legit)
	rep.ReachableLegit = legit.Count()
	return rep
}

func refEverywhereEventually(c, a *system.System, ab *system.Abstraction) core.Verdict {
	relation := fmt.Sprintf("[%s ⊑ee %s]", c.Name(), a.Name())
	if v := core.RefinementInit(c, a, ab); !v.Holds {
		return refFail(relation, "the embedded [C ⊑ A]_init check failed: "+v.Reason, v.Witness, v.WitnessLoop)
	}
	return refSuffixTracking(relation, c, a, ab, nil).Verdict
}

// refFairStabilizing is the reference weak-fairness check.
func refFairStabilizing(lc *system.LabeledSystem, a *system.System, ab *system.Abstraction) *core.StabilizationReport {
	c := lc.Base()
	relation := fmt.Sprintf("%s is stabilizing to %s under weak fairness", c.Name(), a.Name())
	rep := &core.StabilizationReport{}
	alpha, stutterOK, err := refAlphaOf(c, a, ab)
	if err != nil {
		rep.Verdict = refFail(relation, err.Error(), nil, nil)
		return rep
	}
	legit := mc.ReachFromInit(a)
	rep.ReachableLegit = legit.Count()
	badState := func(s int) bool { return !legit.Has(alpha.Of(s)) }
	badEdge := func(s, t int) bool {
		as, at := alpha.Of(s), alpha.Of(t)
		return !a.HasTransition(as, at) && !(stutterOK && as == at)
	}
	for s := 0; s < c.NumStates(); s++ {
		if !c.Terminal(s) {
			continue
		}
		if as := alpha.Of(s); !a.Terminal(as) || badState(s) {
			rep.Verdict = refFail(relation,
				fmt.Sprintf("the one-state computation at terminal %s has no valid suffix: α-image %s is %s",
					c.StateString(s), a.StateString(as), refDescribeBadAnchor(a, as, legit)),
				[]int{s}, nil)
			return rep
		}
	}
	comps, comp := refSCCs(c, nil)
	for _, scc := range comps {
		if len(scc) == 1 && !c.HasTransition(scc[0], scc[0]) {
			continue
		}
		target := comp[scc[0]]
		var bad string
	scan:
		for _, s := range scc {
			if badState(s) {
				bad = "state " + c.StateString(s)
				break
			}
			for _, t := range c.Succ(s) {
				if comp[t] == target && badEdge(s, t) {
					bad = fmt.Sprintf("step %s → %s", c.StateString(s), c.StateString(t))
					break scan
				}
			}
		}
		if bad == "" || refStarved(scc, comp, lc) {
			continue
		}
		members := bitset.FromSlice(c.NumStates(), scc)
		rep.Verdict = refFail(relation,
			fmt.Sprintf("a weakly-fair computation sustains bad event %s inside a %d-state component", bad, len(scc)),
			[]int{scc[0]}, refFindCycleWithin(c, members))
		return rep
	}
	if stutterOK {
		if v, bad := refStutterCycles(c, a, alpha); bad {
			v.Relation = relation
			rep.Verdict = v
			return rep
		}
	}
	badCore := bitset.New(c.NumStates())
	for s := 0; s < c.NumStates(); s++ {
		if badState(s) {
			badCore.Add(s)
		}
		for _, t := range c.Succ(s) {
			if badEdge(s, t) {
				badCore.Add(s)
			}
		}
	}
	good := refCanReach(c, badCore).Complement()
	rep.Legitimate = good.Members()
	rep.Verdict = core.Verdict{Holds: true, Relation: relation,
		Reason: fmt.Sprintf("every weakly-fair computation has a suffix tracking %s; %d of %d states are legitimate",
			a.Name(), good.Count(), c.NumStates())}
	return rep
}

// refStarved reports an action enabled at every state of the component
// and never taken inside it.
func refStarved(scc, comp []int, lc *system.LabeledSystem) bool {
	for act := 0; act < lc.NumActions(); act++ {
		everywhere, taken := true, false
		for _, s := range scc {
			if !lc.Enabled(s, act) {
				everywhere = false
				break
			}
			for _, e := range lc.Edges(s) {
				if e.Action == act && comp[e.To] == comp[scc[0]] {
					taken = true
				}
			}
		}
		if everywhere && !taken {
			return true
		}
	}
	return false
}

// oracleTally counts the outcome kinds an input set exercised.
type oracleTally struct {
	holds, partial, fails int
}

func (o *oracleTally) add(rep *core.StabilizationReport, n int) {
	switch {
	case !rep.Holds:
		o.fails++
	case len(rep.Legitimate) > 0 && len(rep.Legitimate) < n:
		o.partial++
	default:
		o.holds++
	}
}

func sameVerdict(t *testing.T, label string, got, want core.Verdict) {
	t.Helper()
	if got.Holds != want.Holds || got.Relation != want.Relation || got.Reason != want.Reason ||
		!slices.Equal(got.Witness, want.Witness) || !slices.Equal(got.WitnessLoop, want.WitnessLoop) {
		t.Fatalf("%s: verdict differs from the reference\n got: %+v\nwant: %+v", label, got, want)
	}
}

func sameReport(t *testing.T, label string, got, want *core.StabilizationReport) {
	t.Helper()
	sameVerdict(t, label, got.Verdict, want.Verdict)
	if !slices.Equal(got.Legitimate, want.Legitimate) || got.ReachableLegit != want.ReachableLegit {
		t.Fatalf("%s: region differs from the reference\n got: %v (reachable %d)\nwant: %v (reachable %d)",
			label, got.Legitimate, got.ReachableLegit, want.Legitimate, want.ReachableLegit)
	}
}

// checkAgainstOracle compares every stabilization entry point on one
// input with the reference and returns the Stabilizing report.
func checkAgainstOracle(t *testing.T, label string, c, a *system.System, ab *system.Abstraction) *core.StabilizationReport {
	t.Helper()
	rep := core.Stabilizing(c, a, ab)
	sameReport(t, label+"/Stabilizing", rep, refStabilizing(c, a, ab))
	sameVerdict(t, label+"/EverywhereEventually", core.EverywhereEventuallyRefinement(c, a, ab), refEverywhereEventually(c, a, ab))
	if c == a && ab == nil {
		sameReport(t, label+"/SelfStabilizing", core.SelfStabilizing(c), rep)
	}
	return rep
}

func checkFairAgainstOracle(t *testing.T, label string, lc *system.LabeledSystem, a *system.System, ab *system.Abstraction) *core.StabilizationReport {
	t.Helper()
	rep := core.FairStabilizing(lc, a, ab)
	sameReport(t, label+"/FairStabilizing", rep, refFairStabilizing(lc, a, ab))
	return rep
}

// byteSource reads small integers from fuzz or random bytes, yielding 0
// once they run out.
type byteSource struct {
	b []byte
	i int
}

func (r *byteSource) next(mod int) int {
	if r.i >= len(r.b) {
		return 0
	}
	v := int(r.b[r.i])
	r.i++
	return v % mod
}

// oracleInput is one generated instance: a labeled concrete system (its
// base is C), a specification A, and an abstraction or nil.
type oracleInput struct {
	lc *system.LabeledSystem
	a  *system.System
	ab *system.Abstraction
}

// decodeOracleInput turns bytes into an instance. The first bytes pick
// the sizes and the shape of A: a random system, C itself, or C's image
// with extra edges; the rest are edges, initial states and the
// abstraction. Every byte string decodes to a valid instance, including
// terminals, self-loops and I = ∅.
func decodeOracleInput(data []byte) oracleInput {
	r := &byteSource{b: data}
	nC := 1 + r.next(12)
	withAb := r.next(2) == 1
	nA := nC
	if withAb {
		nA = 1 + r.next(nC)
	}
	mode := r.next(3)
	nActs := 1 + r.next(3)

	// C: labeled edges, at most one per (state, action).
	type edge struct{ s, act, t int }
	seen := map[[2]int]bool{}
	var edges []edge
	for m := r.next(2*nC + 1); m > 0; m-- {
		e := edge{r.next(nC), r.next(nActs), r.next(nC)}
		if !seen[[2]int{e.s, e.act}] {
			seen[[2]int{e.s, e.act}] = true
			edges = append(edges, e)
		}
	}
	slices.SortFunc(edges, func(x, y edge) int {
		if x.s != y.s {
			return x.s - y.s
		}
		return x.act - y.act
	})
	cb := system.NewBuilder("C", nC)
	off := make([]int, nC+1)
	var led []system.LabeledEdge
	for _, e := range edges {
		cb.AddTransition(e.s, e.t)
		off[e.s+1]++
		led = append(led, system.LabeledEdge{Action: e.act, To: e.t})
	}
	for s := 0; s < nC; s++ {
		off[s+1] += off[s]
	}
	for s := 0; s < nC; s++ {
		if r.next(4) == 0 {
			cb.AddInit(s)
		}
	}
	names := make([]string, nActs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	base := cb.Build()
	lc := system.NewLabeled(base, names, off, led)

	var ab *system.Abstraction
	of := func(s int) int { return s }
	if withAb {
		img := make([]int, nC)
		for s := range img {
			img[s] = r.next(nA)
		}
		of = func(s int) int { return img[s] }
		var err error
		if ab, err = system.NewAbstraction(nC, nA, of); err != nil {
			panic(err)
		}
	}
	if mode == 1 && !withAb {
		return oracleInput{lc: lc, a: base}
	}
	ba := system.NewBuilder("A", nA)
	if mode != 0 {
		for s := 0; s < nC; s++ {
			for _, t := range base.Succ(s) {
				if of(s) != of(t) || r.next(2) == 0 {
					ba.AddTransition(of(s), of(t))
				}
			}
		}
	}
	for m := r.next(nA + 1); m > 0; m-- {
		ba.AddTransition(r.next(nA), r.next(nA))
	}
	for s := 0; s < nA; s++ {
		if r.next(3) == 0 {
			ba.AddInit(s)
		}
	}
	return oracleInput{lc: lc, a: ba.Build(), ab: ab}
}

// checkOracleInput diffs every entry point on one decoded instance.
func checkOracleInput(t *testing.T, label string, in oracleInput, tally *oracleTally) {
	t.Helper()
	c := in.lc.Base()
	tally.add(checkAgainstOracle(t, label, c, in.a, in.ab), c.NumStates())
	if in.ab == nil {
		checkAgainstOracle(t, label+"/self", c, c, nil)
	}
	tally.add(checkFairAgainstOracle(t, label, in.lc, in.a, in.ab), c.NumStates())
}

func TestStabilizingMatchesOracleRandom(t *testing.T) {
	var tally oracleTally
	for trial := 0; trial < 4000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		data := make([]byte, rng.Intn(80))
		rng.Read(data)
		checkOracleInput(t, fmt.Sprintf("trial %d", trial), decodeOracleInput(data), &tally)
	}
	// The generator must reach every outcome: failures, full regions and
	// partial legitimate regions.
	if tally.holds < 100 || tally.partial < 100 || tally.fails < 100 {
		t.Fatalf("generator too narrow: %+v", tally)
	}
}

func TestStabilizingMatchesOracleRings(t *testing.T) {
	for n := 2; n <= 5; n++ {
		b, f, th, u := ring.NewBTR(n), ring.NewFourState(n), ring.NewThreeState(n), ring.NewUTR(n)
		btr, utr := b.System(), u.System()
		self := map[string]*system.System{
			"BTR": btr, "W1": b.W1(), "W2": b.W2(), "Wrapped": b.Wrapped(), "WrappedPlain": b.WrappedPlain(),
			"UTR": utr, "WU1": u.WU1(), "WU2": u.WU2(), "UTRWrapped": u.Wrapped(),
		}
		fourAb, err := f.Abstraction(b)
		if err != nil {
			t.Fatal(err)
		}
		threeAb, err := th.Abstraction(b)
		if err != nil {
			t.Fatal(err)
		}
		viaBTR := map[string]struct {
			sys *system.System
			ab  *system.Abstraction
		}{
			"BTR4": {f.BTR4(), fourAb}, "C1": {f.C1(), fourAb}, "Dijkstra4": {f.Dijkstra4(), fourAb},
			"W1Prime4": {f.W1Prime(), fourAb}, "W2Prime4": {f.W2Prime(), fourAb},
			"BTR3": {th.BTR3(), threeAb}, "C2": {th.C2(), threeAb}, "C3": {th.C3(), threeAb},
			"W1DoublePrime": {th.W1DoublePrime(), threeAb}, "W1PrimeGlobal": {th.W1PrimeGlobal(), threeAb},
			"W2Prime3": {th.W2Prime(), threeAb}, "Dijkstra3": {th.Dijkstra3(), threeAb},
			"AggressiveThree": {th.AggressiveThree(), threeAb}, "Lemma9System": {th.Lemma9System(), threeAb},
			"ComposedC2": {th.ComposedC2(), threeAb}, "NewThree": {th.NewThree(), threeAb},
			"Dijkstra3Synchronous": {th.Dijkstra3Synchronous(), threeAb},
		}
		for name, v := range viaBTR {
			label := fmt.Sprintf("%s/N=%d", name, n)
			checkAgainstOracle(t, label, v.sys, btr, v.ab)
			self[name] = v.sys
		}
		for k := 2; k <= 4; k++ {
			ks := ring.NewKState(n, k)
			self[fmt.Sprintf("KState/K=%d", k)] = ks.System()
			self[fmt.Sprintf("KStateSynchronous/K=%d", k)] = ks.KStateSynchronous()
			ab, err := ks.Abstraction(u)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("KState/N=%d,K=%d", n, k), ks.System(), utr, ab)
		}
		for name, sys := range self {
			checkAgainstOracle(t, fmt.Sprintf("%s/N=%d/self", name, n), sys, sys, nil)
		}
		lab := th.Lemma9Labeled()
		checkFairAgainstOracle(t, fmt.Sprintf("Lemma9Labeled/N=%d", n), lab, btr, threeAb)
		checkFairAgainstOracle(t, fmt.Sprintf("Lemma9Labeled/N=%d/self", n), lab, lab.Base(), nil)
	}
}

// TestStabilizingMatchesOracleSingleInits covers cold-check's shapes:
// Dijkstra3, AggressiveThree and K-state (K = 3) at N = 4 with every
// single initial state, checked against themselves and, for the two
// three-state rings, against each other.
func TestStabilizingMatchesOracleSingleInits(t *testing.T) {
	th := ring.NewThreeState(4)
	d3, a3, k3 := th.Dijkstra3(), th.AggressiveThree(), ring.NewKState(4, 3).System()
	var tally oracleTally
	for s := 0; s < d3.NumStates(); s++ {
		init := []int{s}
		d, a, k := d3.WithInit(init), a3.WithInit(init), k3.WithInit(init)
		for _, sys := range []*system.System{d, a, k} {
			tally.add(checkAgainstOracle(t, fmt.Sprintf("%s/i%d/self", sys.Name(), s), sys, sys, nil), sys.NumStates())
		}
		tally.add(checkAgainstOracle(t, fmt.Sprintf("A3-D3/i%d", s), a, d, nil), d.NumStates())
		tally.add(checkAgainstOracle(t, fmt.Sprintf("D3-A3/i%d", s), d, a, nil), d.NumStates())
	}
	if tally.fails == 0 || tally.holds+tally.partial == 0 {
		t.Fatalf("single-init population reached one outcome only: %+v", tally)
	}
}

// FuzzStabilizing decodes bytes into an automaton, a specification and
// an optional abstraction and diffs every stabilization entry point
// against the reference.
func FuzzStabilizing(f *testing.F) {
	for trial := 0; trial < 16; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		data := make([]byte, 8+rng.Intn(64))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tally oracleTally
		checkOracleInput(t, "fuzz", decodeOracleInput(data), &tally)
	})
}
