package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gcl"
	"repro/internal/ring"
	"repro/internal/system"
)

// TestDijkstra3MatchesModel, TestDijkstra4MatchesModel,
// TestKStateMatchesModel and TestNewThreeMatchesModel compare each
// family's protocol with the labeled system the checker compiles from the
// same ring template, state by state: the registers pack as documented
// (the counter alone, or c.j + 2·up.j at a dijkstra4 middle process), the
// moves are the non-τ edges in process then action order with the
// action's name minus its index as the rule, and a process is privileged
// iff one of its actions is enabled (for dijkstra3's top, or ↑t.N holds).
// Each case is checked twice: as NewProtocol builds it, every action
// with a table, and compiled with no table budget, every action by its
// closures.
func TestDijkstra3MatchesModel(t *testing.T) { checkFamilyMatchesTemplate(t, "dijkstra3", 0) }

func TestDijkstra4MatchesModel(t *testing.T) { checkFamilyMatchesTemplate(t, "dijkstra4", 0) }

func TestKStateMatchesModel(t *testing.T) {
	checkFamilyMatchesTemplate(t, "kstate", 3)
	checkFamilyMatchesTemplate(t, "kstate", 4)
	checkTemplateCase(t, "kstate", 2, 70)
}

func TestNewThreeMatchesModel(t *testing.T) { checkFamilyMatchesTemplate(t, "newthree", 0) }

// published is each family's ring template as the ring package publishes
// it, which families extends for the simulator.
var published = map[string]func(n, k int) string{
	"dijkstra3": func(n, _ int) string { return ring.Dijkstra3GCL(n) },
	"dijkstra4": func(n, _ int) string { return ring.Dijkstra4GCL(n) },
	"kstate":    ring.KStateGCL,
	"newthree":  func(n, _ int) string { return ring.NewThreeGCL(n) },
}

// checkFamilyMatchesTemplate runs checkTemplateCase at N = 2..5.
func checkFamilyMatchesTemplate(t *testing.T, family string, k int) {
	t.Helper()
	for n := 2; n <= 5; n++ {
		checkTemplateCase(t, family, n, k)
	}
}

func checkTemplateCase(t *testing.T, family string, n, k int) {
	t.Helper()
	t.Run(fmt.Sprintf("N=%d,K=%d", n, k), func(t *testing.T) {
		prog, err := gcl.Parse(published[family](n, k))
		if err != nil {
			t.Fatal(err)
		}
		ls, err := gcl.CompileLabeled(family, prog)
		if err != nil {
			t.Fatal(err)
		}
		closures, err := compile("closures", families[family](n, k), 0)
		if err != nil {
			t.Fatal(err)
		}
		proto := newProto(family, n+1, k)
		if tables, untabled := tabulated(proto); untabled != 0 {
			t.Fatalf("%d actions with tables, %d without, under the budget", tables, untabled)
		}
		if tables, _ := tabulated(closures); tables != 0 {
			t.Fatalf("%d actions with tables under a zero budget", tables)
		}
		checkAgainstLabeled(t, family, n, proto, prog, ls)
		checkAgainstLabeled(t, family, n, closures, prog, ls)
	})
}

// tabulated counts the actions of the protocol's lowered template with
// and without a table.
func tabulated(p *Protocol) (tables, closures int) {
	for ai := range p.prog.Actions {
		if _, base, _ := p.low.Index(ai); base != 0 {
			tables++
		} else {
			closures++
		}
	}
	return tables, closures
}

func checkAgainstLabeled(t *testing.T, family string, n int, proto *Protocol, prog *gcl.Program, ls *system.LabeledSystem) {
	t.Helper()
	sp := ls.Base().Space()
	size := 1
	for i := 0; i < proto.Procs(); i++ {
		size *= proto.Domain(i)
	}
	if proto.Procs() != n+1 || size != sp.Size() {
		t.Fatalf("%d processes spanning %d configurations, want %d and %d", proto.Procs(), size, n+1, sp.Size())
	}
	// procOf is the process an action belongs to: the index in the name
	// of the variable it assigns.
	procOf := make([]int, len(prog.Actions))
	for a, act := range prog.Actions {
		procOf[a], _ = strconv.Atoi(strings.TrimLeft(act.Assigns[0].Name, "cupx"))
	}
	vals := make(system.Vals, sp.NumVars())
	pack := func(s int) Config {
		vals = sp.Decode(s, vals)
		cfg := Config(slices.Clone(vals[:n+1]))
		if family == "dijkstra4" {
			for j := 1; j < n; j++ {
				cfg[j] += 2 * vals[n+j]
			}
		}
		return cfg
	}
	for s := 0; s < sp.Size(); s++ {
		var want []Move
		privileged := make([]bool, n+1)
		for _, e := range ls.Edges(s) {
			i := procOf[e.Action]
			privileged[i] = true
			if e.To != s {
				rule := strings.TrimRight(ls.ActionName(e.Action), "0123456789")
				want = append(want, Move{Proc: i, Rule: rule, NewVal: pack(e.To)[i]})
			}
		}
		slices.SortStableFunc(want, func(a, b Move) int { return a.Proc - b.Proc })
		cfg := pack(s)
		if family == "dijkstra3" && vals[n-1] == (vals[n]+1)%3 {
			privileged[n] = true
		}
		if err := Validate(proto, cfg); err != nil {
			t.Fatalf("state %s: %v", sp.StateString(s), err)
		}
		if got := EnabledMoves(proto, cfg); !slices.Equal(got, want) {
			t.Fatalf("state %s (registers %v): moves %v, template %v", sp.StateString(s), cfg, got, want)
		}
		for i, want := range privileged {
			if got := proto.TokenAt(cfg, i); got != want {
				t.Fatalf("state %s: process %d privileged = %v, template %v", sp.StateString(s), i, got, want)
			}
		}
	}
}

// TestCompileRejectsNonRings: a process must read only its ring
// neighbors, every variable must belong to a process, and a ring has at
// least three.
func TestCompileRejectsNonRings(t *testing.T) {
	const decls = "var a0 : 0..2; var a1 : 0..2; var a2 : 0..2; var a3 : 0..2;\n"
	for _, tc := range []struct {
		src, want string
	}{
		{decls + "action s0: a2 == 0 -> a0 := 1;\naction s1: true -> a1 := 0;\n" +
			"action s2: true -> a2 := 0;\naction s3: true -> a3 := 0;\n",
			"process 0 reads a2, outside its ring neighborhood"},
		{decls + "action s0: true -> a0 := a1;\naction s1: true -> a1 := 0;\n" +
			"action s2: true -> a2 := 0;\naction s3: true -> a3 := 0;\naction t3: a1 == 0 -> a3 := a3;\n",
			"process 3 reads a1, outside its ring neighborhood"},
		{decls + "action s0: true -> a0 := 1;\naction s1: true -> a1 := 0;\naction s2: true -> a2 := 0;\n",
			`variable "a3" is written by no action`},
		{decls + "action s0: true -> a0 := 1; a1 := 1;\naction s2: true -> a2 := 0; a3 := 0;\n",
			"a ring needs at least 3 processes, the program has 2"},
	} {
		_, err := compile("bad", tc.src, tableBudget)
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("compile error %v, want suffix %q", err, tc.want)
		}
	}
}

// TestProcessesShareTemplateTables: a ring laid out from its template
// runs the template's processes, whose actions all look up the one
// lowered template, so a large ring costs the tables of layoutFrom
// processes, not one per process.
func TestProcessesShareTemplateTables(t *testing.T) {
	for _, tc := range []struct {
		family string
		k      int
	}{{"dijkstra3", 0}, {"dijkstra4", 0}, {"kstate", 64}, {"newthree", 0}} {
		proto := newProto(tc.family, 200, tc.k)
		procs := make(map[*process]bool)
		for _, pr := range proto.procs {
			procs[pr] = true
		}
		if len(procs) != layoutFrom || len(proto.tmpl) != layoutFrom {
			t.Errorf("%s: %d distinct processes over %d, from a template of %d, want %d",
				tc.family, len(procs), proto.Procs(), len(proto.tmpl), layoutFrom)
		}
		if tables, closures := tabulated(proto); tables == 0 || closures != 0 {
			t.Errorf("%s: %d actions with tables, %d without", tc.family, tables, closures)
		}
		if entries, _, _ := proto.low.Index(0); len(entries) > 1+tableBudget {
			t.Errorf("%s: %d table entries, over the budget of %d", tc.family, len(entries)-1, tableBudget)
		}
	}
}

// TestProtocolConcurrentUse: the cluster runtime calls Moves and TokenAt
// from one goroutine per node. Actions looked up in their tables and
// actions stepped by their closures (K = 1000 is past the table budget)
// must answer from several goroutines at once as they do from one.
func TestProtocolConcurrentUse(t *testing.T) {
	for _, proto := range []*Protocol{newProto("kstate", 5, 70), newProto("kstate", 5, 1000), newProto("dijkstra4", 5, 0)} {
		cfg := make(Config, proto.Procs())
		for i := range cfg {
			cfg[i] = (7 * i) % proto.Domain(i)
		}
		want, tokens := EnabledMoves(proto, cfg), TokenCount(proto, cfg)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 200; n++ {
					if got := EnabledMoves(proto, cfg); !slices.Equal(got, want) || TokenCount(proto, cfg) != tokens {
						t.Errorf("%s: concurrent moves %v (tokens %d), want %v (%d)",
							proto.Name(), got, TokenCount(proto, cfg), want, tokens)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestStretchMatchesTemplate: a ring of more than layoutFrom processes is
// laid out from the template compiled at layoutFrom. On random
// configurations it must move and hold tokens as the template compiled
// at its own size does, for every family, kstate with tables and kstate
// past the table budget among them.
func TestStretchMatchesTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		family string
		k      int
	}{{"dijkstra3", 0}, {"dijkstra4", 0}, {"newthree", 0}, {"kstate", 3}, {"kstate", 70}, {"kstate", 1000}} {
		for _, p := range []int{6, 7, 8, 9, 13} {
			want, err := compile("full", families[tc.family](p-1, tc.k), tableBudget)
			if err != nil {
				t.Fatal(err)
			}
			got := newProto(tc.family, p, tc.k)
			if len(got.tmpl) != layoutFrom || got.Procs() != p {
				t.Fatalf("%s: %d processes from a template of %d, want %d from %d",
					got.Name(), got.Procs(), len(got.tmpl), p, layoutFrom)
			}
			for i := 0; i < p; i++ {
				if got.Domain(i) != want.Domain(i) {
					t.Fatalf("%s: process %d domain %d, template %d", got.Name(), i, got.Domain(i), want.Domain(i))
				}
			}
			for n := 0; n < 2000; n++ {
				cfg := make(Config, p)
				for i := range cfg {
					cfg[i] = rng.Intn(want.Domain(i))
				}
				if g, w := EnabledMoves(got, cfg), EnabledMoves(want, cfg); !slices.Equal(g, w) {
					t.Fatalf("%s at %v: moves %v, template %v", got.Name(), cfg, g, w)
				}
				for i := range cfg {
					if got.TokenAt(cfg, i) != want.TokenAt(cfg, i) {
						t.Fatalf("%s at %v: process %d privileged = %v, template %v",
							got.Name(), cfg, i, got.TokenAt(cfg, i), want.TokenAt(cfg, i))
					}
				}
			}
		}
	}
}

// TestKStateHugeModulus: a modulus whose squared register span overflows
// an int leaves every action to its closures instead of sizing a table
// from the wrapped product, and the ring still converges.
func TestKStateHugeModulus(t *testing.T) {
	for _, k := range []int{1 << 32, 3_100_000_000} {
		proto := newProto("kstate", 3, k)
		if tables, _ := tabulated(proto); tables != 0 {
			t.Fatalf("K = %d: %d actions with tables", k, tables)
		}
		start := Config{k - 1, 5, 0}
		r := &Runner{Proto: proto, Daemon: NewRoundRobinDaemon(3), MaxSteps: 100}
		res, err := r.Run(start)
		if err != nil || !res.Converged {
			t.Fatalf("K = %d: converged = %v, err = %v", k, res != nil && res.Converged, err)
		}
	}
}

// TestKStateClosuresMatchEval: past the table budget K-state actions run
// their closures, at K where the checker's full compile is too large to
// compare with. On random configurations their moves and privileges must
// be what gcl.Eval makes of the template: at K = 300 one action of three
// keeps a table, at K = 1000 none does.
func TestKStateClosuresMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ p, k, tables int }{{3, 300, 1}, {5, 1000, 0}} {
		proto := newProto("kstate", tc.p, tc.k)
		if tables, _ := tabulated(proto); tables != tc.tables {
			t.Fatalf("P = %d, K = %d: %d actions with tables, want %d", tc.p, tc.k, tables, tc.tables)
		}
		prog, err := gcl.Parse(families["kstate"](tc.p-1, tc.k))
		if err == nil {
			err = gcl.Check(prog)
		}
		if err != nil {
			t.Fatal(err)
		}
		eval := func(e gcl.Expr, env system.Vals) int {
			v, err := gcl.Eval(prog, e, env)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		for n := 0; n < 2000; n++ {
			cfg := make(Config, tc.p) // register i is variable x_i
			for i := range cfg {
				cfg[i] = rng.Intn(tc.k)
			}
			if n%2 == 1 { // half the time, some neighbors agree
				cfg[rng.Intn(tc.p)] = cfg[rng.Intn(tc.p)]
			}
			var want []Move
			privileged := make([]bool, tc.p)
			for _, a := range prog.Actions { // one per process, in process order
				i, _ := strconv.Atoi(strings.TrimPrefix(a.Assigns[0].Name, "x"))
				if eval(a.Guard, system.Vals(cfg)) == 0 {
					continue
				}
				privileged[i] = true
				if v := eval(a.Assigns[0].Expr, system.Vals(cfg)); v != cfg[i] {
					want = append(want, Move{Proc: i, Rule: strings.TrimRight(a.Name, "0123456789"), NewVal: v})
				}
			}
			if got := EnabledMoves(proto, cfg); !slices.Equal(got, want) {
				t.Fatalf("K = %d at %v: moves %v, Eval %v", tc.k, cfg, got, want)
			}
			for i, want := range privileged {
				if got := proto.TokenAt(cfg, i); got != want {
					t.Fatalf("K = %d at %v: process %d privileged = %v, Eval %v", tc.k, cfg, i, got, want)
				}
			}
		}
	}
}

// TestNewProtocolSharesTemplate: rings built from one (family, size, k)
// share the cached template's tables, and laying a large ring out does
// not change the template a smaller ring is built from.
func TestNewProtocolSharesTemplate(t *testing.T) {
	big, small, again := newProto("kstate", 128, 97), newProto("kstate", 5, 97), newProto("kstate", 9, 97)
	for _, tc := range []struct {
		proto *Protocol
		procs int
		name  string
	}{{big, 128, "kstate(P=128,K=97)"}, {small, 5, "kstate(P=5,K=97)"}, {again, 9, "kstate(P=9,K=97)"}} {
		if tc.proto.Procs() != tc.procs || tc.proto.Name() != tc.name {
			t.Errorf("got %s with %d processes, want %s with %d", tc.proto.Name(), tc.proto.Procs(), tc.name, tc.procs)
		}
	}
	if &big.entries[0] != &small.entries[0] || &big.entries[0] != &again.entries[0] {
		t.Error("protocols built from one template do not share its tables")
	}
	if other := newProto("kstate", 128, 98); &other.entries[0] == &big.entries[0] {
		t.Error("protocols with different moduli share tables")
	}
	if d3, d3k := newProto("dijkstra3", 7, 0), newProto("dijkstra3", 7, 5); &d3.entries[0] != &d3k.entries[0] {
		t.Error("a modulus a family does not read split its template")
	}

	// Concurrent builds over more moduli than the cache holds, so
	// templates are evicted while others are being laid out.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 2; k < 2+2*maxTemplates; k++ {
				p := 5 + (k+g)%4
				proto, err := NewProtocol("kstate", p, k)
				if err != nil || proto.Procs() != p || proto.Name() != fmt.Sprintf("kstate(P=%d,K=%d)", p, k) {
					t.Errorf("kstate P=%d K=%d: got %v, %v", p, k, proto, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
