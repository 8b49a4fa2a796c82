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
// kstate at K = 70 spans more points than a memo table holds, so it
// checks the unmemoized evaluation.
func TestDijkstra3MatchesModel(t *testing.T) { checkFamilyMatchesTemplate(t, "dijkstra3", 0) }

func TestDijkstra4MatchesModel(t *testing.T) { checkFamilyMatchesTemplate(t, "dijkstra4", 0) }

func TestKStateMatchesModel(t *testing.T) {
	checkFamilyMatchesTemplate(t, "kstate", 3)
	checkFamilyMatchesTemplate(t, "kstate", 4)
	checkTemplateCase(t, "kstate", 2, 70)
}

func TestNewThreeMatchesModel(t *testing.T) { checkFamilyMatchesTemplate(t, "newthree", 0) }

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
		prog, err := gcl.Parse(families[family].template(n, k))
		if err != nil {
			t.Fatal(err)
		}
		ls, err := gcl.CompileLabeled(family, prog)
		if err != nil {
			t.Fatal(err)
		}
		proto := newProto(family, n+1, k)
		checkAgainstLabeled(t, family, n, proto, prog, ls)
		for i := range proto.procs {
			if memoized := proto.procs[i].memo != nil; memoized != (k <= 64) {
				t.Fatalf("process %d memoized = %v at K = %d", i, memoized, k)
			}
		}
	})
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
		src, top, want string
	}{
		{decls + "action s0: a2 == 0 -> a0 := 1;\naction s1: true -> a1 := 0;\n" +
			"action s2: true -> a2 := 0;\naction s3: true -> a3 := 0;\n", "",
			"process 0 reads a2, outside its ring neighborhood"},
		{decls + "action s0: true -> a0 := a1;\naction s1: true -> a1 := 0;\n" +
			"action s2: true -> a2 := 0;\naction s3: true -> a3 := 0;\n", "a1 == 0",
			"process 3 reads a1, outside its ring neighborhood"},
		{decls + "action s0: true -> a0 := 1;\naction s1: true -> a1 := 0;\naction s2: true -> a2 := 0;\n", "",
			`variable "a3" is written by no action`},
		{decls + "action s0: true -> a0 := 1; a1 := 1;\naction s2: true -> a2 := 0; a3 := 0;\n", "",
			"a ring needs at least 3 processes, the program has 2"},
	} {
		_, err := compile("bad", tc.src, tc.top)
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("compile error %v, want suffix %q", err, tc.want)
		}
	}
}

// TestProcessesShareMemoTables: a ring laid out from its template shares
// the template's memo tables, so a large ring costs layoutFrom tables,
// not one per process.
func TestProcessesShareMemoTables(t *testing.T) {
	for _, tc := range []struct {
		family string
		k      int
	}{{"dijkstra3", 0}, {"dijkstra4", 0}, {"kstate", 64}, {"newthree", 0}} {
		proto := newProto(tc.family, 200, tc.k)
		tables := make(map[*cell]bool)
		for _, pr := range proto.procs {
			tables[&pr.memo[0]] = true
		}
		if len(tables) != layoutFrom {
			t.Errorf("%s: %d memo tables over %d processes, want %d", tc.family, len(tables), proto.Procs(), layoutFrom)
		}
	}
}

// TestProtocolConcurrentUse: the cluster runtime calls Moves and TokenAt
// from one goroutine per node. Memoized and unmemoized processes (K = 70
// is past the memo cap) must answer from several goroutines at once as
// they do from one; unmemoized evaluation keeps its scratch on the stack.
func TestProtocolConcurrentUse(t *testing.T) {
	for _, proto := range []*Protocol{newProto("kstate", 5, 70), newProto("dijkstra4", 5, 0)} {
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
// at its own size does, for every family, a memoized and an unmemoized
// kstate among them.
func TestStretchMatchesTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		family string
		k      int
	}{{"dijkstra3", 0}, {"dijkstra4", 0}, {"newthree", 0}, {"kstate", 3}, {"kstate", 70}} {
		f := families[tc.family]
		for _, p := range []int{6, 7, 8, 9, 13} {
			top := ""
			if f.top != nil {
				top = f.top(p - 1)
			}
			want, err := compile("full", f.template(p-1, tc.k), top)
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
// an int takes the unmemoized path instead of sizing a memo table from
// the wrapped product.
func TestKStateHugeModulus(t *testing.T) {
	for _, k := range []int{1 << 32, 3_100_000_000} {
		proto := newProto("kstate", 3, k)
		for i := range proto.procs {
			if proto.procs[i].memo != nil {
				t.Fatalf("K = %d: process %d memoized", k, i)
			}
		}
		start := Config{k - 1, 5, 0}
		r := &Runner{Proto: proto, Daemon: NewRoundRobinDaemon(3), MaxSteps: 100}
		res, err := r.Run(start)
		if err != nil || !res.Converged {
			t.Fatalf("K = %d: converged = %v, err = %v", k, res != nil && res.Converged, err)
		}
	}
}
