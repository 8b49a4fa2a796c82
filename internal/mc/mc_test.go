package mc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/system"
)

// build constructs a raw system from an edge list.
func build(t *testing.T, n int, edges [][2]int, inits ...int) *system.System {
	t.Helper()
	b := system.NewBuilder("g", n)
	for _, e := range edges {
		b.AddTransition(e[0], e[1])
	}
	for _, i := range inits {
		b.AddInit(i)
	}
	return b.Build()
}

func TestReach(t *testing.T) {
	sys := build(t, 5, [][2]int{{0, 1}, {1, 2}, {3, 4}}, 0)
	got := Reach(sys, bitset.FromSlice(5, []int{0}))
	if !got.Equal(bitset.FromSlice(5, []int{0, 1, 2})) {
		t.Fatalf("Reach = %v", got)
	}
}

func TestReachFromInit(t *testing.T) {
	sys := build(t, 4, [][2]int{{0, 1}, {2, 3}}, 0, 2)
	got := ReachFromInit(sys)
	if got.Count() != 4 {
		t.Fatalf("Reach = %v", got)
	}
}

func TestShortestPath(t *testing.T) {
	sys := build(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}, {3, 5}})
	p := ShortestPath(sys, 0, 3)
	if len(p) != 3 || p[0] != 0 || p[2] != 3 {
		t.Fatalf("ShortestPath = %v", p)
	}
	if got := ShortestPath(sys, 3, 0); got != nil {
		t.Fatalf("path should not exist, got %v", got)
	}
	if p := ShortestPath(sys, 2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("trivial path = %v", p)
	}
}

func TestBFSWithin(t *testing.T) {
	sys := build(t, 4, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}})
	within := bitset.FromSlice(4, []int{0, 2, 3}) // exclude 1
	tr := BFS(sys, 0, within)
	p := tr.PathTo(3)
	if len(p) != 3 || p[1] != 2 {
		t.Fatalf("PathTo(3) = %v, want via 2", p)
	}
	if tr.Dist[1] != -1 {
		t.Fatal("BFS entered excluded state")
	}
}

func TestPathFromInit(t *testing.T) {
	sys := build(t, 5, [][2]int{{0, 2}, {1, 2}, {2, 3}}, 0, 1)
	p := PathFromInit(sys, 3)
	if len(p) != 3 || p[2] != 3 {
		t.Fatalf("PathFromInit = %v", p)
	}
	if got := PathFromInit(sys, 4); got != nil {
		t.Fatalf("unreachable target returned %v", got)
	}
}

func TestSCCs(t *testing.T) {
	// Two SCCs: {0,1,2} cycle and {3}; plus 4 with self-loop.
	sys := build(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 4}})
	cd := SCCs(sys, nil)
	if cd.Len() != 3 {
		t.Fatalf("got %d components: %+v", cd.Len(), cd)
	}
	comp := cd.Comp
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("cycle states in different components")
	}
	if comp[3] == comp[0] || comp[4] == comp[0] {
		t.Fatal("separate states merged")
	}
	// Reverse topological order: {3} must be emitted before {0,1,2}.
	if comp[3] > comp[0] {
		t.Fatal("SCC emission not reverse-topological")
	}
	// Members as rows: every state once, in its own component's row.
	if len(cd.Members) != 5 || cd.Off[cd.Len()] != 5 {
		t.Fatalf("members = %v, off = %v", cd.Members, cd.Off)
	}
	for i := 0; i < cd.Len(); i++ {
		for _, s := range cd.Component(i) {
			if comp[s] != i {
				t.Fatalf("state %d listed under component %d, comp %d", s, i, comp[s])
			}
		}
	}
	// Cyclic: the 3-cycle and the self-loop, not the sink {3}.
	if !cd.Cyclic[comp[0]] || !cd.Cyclic[comp[4]] || cd.Cyclic[comp[3]] {
		t.Fatalf("cyclic = %v, comp = %v", cd.Cyclic, comp)
	}
}

func TestSCCsWithin(t *testing.T) {
	sys := build(t, 3, [][2]int{{0, 1}, {1, 0}, {1, 2}})
	within := bitset.FromSlice(3, []int{0, 2})
	cd := SCCs(sys, within)
	if cd.Len() != 2 || len(cd.Members) != 2 {
		t.Fatalf("components = %+v", cd)
	}
	if cd.Comp[1] != -1 {
		t.Fatal("excluded state got a component")
	}
	// The 0 ↔ 1 cycle leaves the subset: nothing inside is cyclic.
	if cd.Cyclic[0] || cd.Cyclic[1] {
		t.Fatalf("cyclic = %v", cd.Cyclic)
	}
}

// TestSCCsRandom checks the condensation against its definition on
// random graphs and subsets: components are the mutual-reachability
// classes inside the subset, numbered sinks first, listed once each, and
// cyclic exactly when they sustain a cycle.
func TestSCCsRandom(t *testing.T) {
	for trial := 0; trial < 500; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(10)
		var edges [][2]int
		for m := rng.Intn(3 * n); m > 0; m-- {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		sys := build(t, n, edges)
		region := bitset.Full(n)
		var within *bitset.Set
		if rng.Intn(2) == 0 {
			within = bitset.New(n)
			for s := 0; s < n; s++ {
				if rng.Intn(3) > 0 {
					within.Add(s)
				}
			}
			region = within
		}
		cd := SCCs(sys, within)
		reach := make([]*bitset.Set, n)
		for s := 0; s < n; s++ {
			reach[s] = reachWithin(sys, bitset.FromSlice(n, []int{s}), region)
		}
		listed := 0
		for i := 0; i < cd.Len(); i++ {
			members := cd.Component(i)
			listed += len(members)
			for _, s := range members {
				if cd.Comp[s] != i {
					t.Fatalf("trial %d: state %d in row %d has comp %d", trial, s, i, cd.Comp[s])
				}
			}
			if want := len(members) > 1 || sys.HasTransition(members[0], members[0]); cd.Cyclic[i] != want {
				t.Fatalf("trial %d: component %d cyclic = %v, want %v", trial, i, cd.Cyclic[i], want)
			}
		}
		if listed != region.Count() || len(cd.Members) != listed {
			t.Fatalf("trial %d: %d members listed, subset has %d", trial, listed, region.Count())
		}
		for s := 0; s < n; s++ {
			if !region.Has(s) {
				if cd.Comp[s] != -1 {
					t.Fatalf("trial %d: excluded state %d in component %d", trial, s, cd.Comp[s])
				}
				continue
			}
			for u := 0; u < n; u++ {
				if !region.Has(u) {
					continue
				}
				mutual := reach[s].Has(u) && reach[u].Has(s)
				if (cd.Comp[s] == cd.Comp[u]) != mutual {
					t.Fatalf("trial %d: states %d, %d share a component = %v, mutually reachable = %v",
						trial, s, u, cd.Comp[s] == cd.Comp[u], mutual)
				}
			}
			for _, u := range sys.Succ(s) {
				if region.Has(u) && cd.Comp[u] > cd.Comp[s] {
					t.Fatalf("trial %d: edge %d → %d climbs from component %d to %d", trial, s, u, cd.Comp[s], cd.Comp[u])
				}
			}
		}
	}
}

func TestFindCycleWithin(t *testing.T) {
	sys := build(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 1}, {3, 3}})
	// Full graph: cycle {1,2} exists.
	cyc := FindCycleWithin(sys, bitset.Full(5))
	if cyc == nil {
		t.Fatal("missed cycle")
	}
	states := append([]int(nil), cyc.States...)
	sort.Ints(states)
	if len(states) == 1 && states[0] == 3 {
		// self-loop also acceptable
	} else if len(states) != 2 || states[0] != 1 || states[1] != 2 {
		t.Fatalf("cycle = %v", cyc.States)
	}
	// Cycle witness must be a real cycle: consecutive transitions and wrap.
	for i := 0; i+1 < len(cyc.States); i++ {
		if !sys.HasTransition(cyc.States[i], cyc.States[i+1]) {
			t.Fatalf("witness edge missing: %v", cyc.States)
		}
	}
	if !sys.HasTransition(cyc.States[len(cyc.States)-1], cyc.States[0]) {
		t.Fatalf("witness does not wrap: %v", cyc.States)
	}
	// Excluding state 2 and 3 leaves no cycle.
	if c := FindCycleWithin(sys, bitset.FromSlice(5, []int{0, 1, 4})); c != nil {
		t.Fatalf("phantom cycle %v", c.States)
	}
}

func TestFindSelfLoop(t *testing.T) {
	sys := build(t, 2, [][2]int{{1, 1}})
	cyc := FindCycleWithin(sys, bitset.Full(2))
	if cyc == nil || len(cyc.States) != 1 || cyc.States[0] != 1 {
		t.Fatalf("cycle = %+v", cyc)
	}
}

func TestTerminalsWithin(t *testing.T) {
	sys := build(t, 4, [][2]int{{0, 1}, {2, 3}})
	got := TerminalsWithin(sys, bitset.FromSlice(4, []int{1, 2, 3}))
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("terminals = %v", got)
	}
}

func TestGreatestFixpoint(t *testing.T) {
	// Keep states whose value is >= all removed neighbors... simpler: keep
	// s if s+1 is still in the set or s == 4 (top). Seed {0..4}: stable.
	seed := bitset.Full(5)
	got := GreatestFixpoint(seed, func(s int, cur *bitset.Set) bool {
		return s == 4 || cur.Has(s+1)
	})
	if got.Count() != 5 {
		t.Fatalf("fixpoint = %v", got)
	}
	// Remove the anchor: everything unravels.
	seed2 := bitset.FromSlice(5, []int{0, 1, 2, 3})
	got2 := GreatestFixpoint(seed2, func(s int, cur *bitset.Set) bool {
		return s == 4 || cur.Has(s+1)
	})
	if !got2.Empty() {
		t.Fatalf("fixpoint = %v, want empty", got2)
	}
}

func TestTrappedWitnessCycle(t *testing.T) {
	// Region {1,2}: cycle 1<->2 reachable from 0? 0 not in region, so start
	// inside region.
	sys := build(t, 3, [][2]int{{0, 1}, {1, 2}, {2, 1}})
	region := bitset.FromSlice(3, []int{1, 2})
	w := TrappedWitness(sys, bitset.FromSlice(3, []int{1}), region)
	if w == nil || !w.Infinite() {
		t.Fatalf("witness = %+v", w)
	}
	if w.Stem[0] != 1 {
		t.Fatalf("stem = %v", w.Stem)
	}
}

func TestTrappedWitnessTerminal(t *testing.T) {
	sys := build(t, 3, [][2]int{{0, 1}, {1, 2}})
	region := bitset.FromSlice(3, []int{1, 2})
	w := TrappedWitness(sys, bitset.FromSlice(3, []int{1}), region)
	if w == nil || w.Infinite() {
		t.Fatalf("witness = %+v", w)
	}
	if last := w.Stem[len(w.Stem)-1]; last != 2 {
		t.Fatalf("stem = %v, want ending at terminal 2", w.Stem)
	}
}

func TestTrappedWitnessNone(t *testing.T) {
	// From region {0}, the only move leaves the region; no trap.
	sys := build(t, 2, [][2]int{{0, 1}, {1, 1}})
	region := bitset.FromSlice(2, []int{0})
	if w := TrappedWitness(sys, bitset.FromSlice(2, []int{0}), region); w != nil {
		t.Fatalf("unexpected witness %+v", w)
	}
}

func TestTrappedWitnessUnreachableCycle(t *testing.T) {
	// Region {0,1,2,3}: cycle {2,3} exists but is unreachable from start 0;
	// 0 -> 1 terminal... 1 is terminal in region AND in sys, so the
	// terminal witness fires. Make 1 leave the region instead: then from 0
	// nothing traps.
	sys := build(t, 5, [][2]int{{0, 1}, {1, 4}, {2, 3}, {3, 2}, {4, 4}})
	region := bitset.FromSlice(5, []int{0, 1, 2, 3})
	w := TrappedWitness(sys, bitset.FromSlice(5, []int{0}), region)
	if w != nil {
		t.Fatalf("unexpected witness %+v", w)
	}
	// But starting inside the cycle, it traps.
	w = TrappedWitness(sys, bitset.FromSlice(5, []int{2}), region)
	if w == nil || !w.Infinite() {
		t.Fatalf("witness = %+v", w)
	}
}

func TestLassoStates(t *testing.T) {
	l := &Lasso{Stem: []int{0, 1}, Loop: []int{2, 3}}
	got := l.States()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("States = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("States = %v", got)
		}
	}
}

// TestSCCsOnRecycledArrays condenses a system into arrays drawn from a
// pool full of stale values, on the whole space and on a subset, and
// expects what a condensation into fresh arrays gives.
func TestSCCsOnRecycledArrays(t *testing.T) {
	const n = 600 // above the smallest size the pool keeps
	rng := rand.New(rand.NewSource(7))
	var edges [][2]int
	for i := 0; i < 2*n; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	sys := build(t, n, edges)
	within := bitset.New(n)
	for s := 0; s < n; s += 3 {
		within.Add(s)
	}
	for _, region := range []*bitset.Set{nil, within} {
		fresh := SCCs(sys, region)
		want := Condensation{Comp: slices.Clone(fresh.Comp), Off: slices.Clone(fresh.Off),
			Members: slices.Clone(fresh.Members), Cyclic: slices.Clone(fresh.Cyclic)}
		fresh.Release()
		for i := 0; i < 8; i++ {
			stale := make([]int, n+1+i%2)
			for j := range stale {
				stale[j] = rng.Intn(n) - 1
			}
			system.PutInts(stale)
		}
		got := SCCs(sys, region)
		if !slices.Equal(got.Comp, want.Comp) || !slices.Equal(got.Off, want.Off) ||
			!slices.Equal(got.Members, want.Members) || !slices.Equal(got.Cyclic, want.Cyclic) {
			t.Fatalf("condensation into recycled arrays differs from a fresh one (within %v)", region != nil)
		}
		got.Release()
	}
}

func TestReleasedCondensationPanics(t *testing.T) {
	sys := build(t, 3, [][2]int{{0, 1}, {1, 0}, {1, 2}})
	for name, use := range map[string]func(*Condensation){
		"Comp":      func(cd *Condensation) { _ = cd.Comp[0] },
		"Component": func(cd *Condensation) { cd.Component(0) },
	} {
		cd := SCCs(sys, nil)
		cd.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released condensation did not panic", name)
				}
			}()
			use(cd)
		}()
	}
}
