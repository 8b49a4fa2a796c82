// Benchmarks: one per experiment E1–E15 (the paper's reproducible
// artifacts; see DESIGN.md's index and EXPERIMENTS.md for recorded
// outputs), plus micro-benchmarks for the substrate — state-space
// enumeration, the relation checkers, and simulator throughput — and
// ablations for the design choices DESIGN.md calls out (priority vs plain
// wrapper composition).
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
	"repro/internal/journal"
	"repro/internal/mc"
	"repro/internal/ring"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/system"
)

// newProto builds a protocol family the tests know to be valid.
func newProto(family string, p, k int) *sim.Protocol {
	proto, err := sim.NewProtocol(family, p, k)
	if err != nil {
		panic(err)
	}
	return proto
}

// benchExperiment runs one experiment per iteration and fails the
// benchmark if the experiment deviates from its expectations.
func benchExperiment(b *testing.B, fn func() *experiments.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep := fn()
		if !rep.Pass() {
			b.Fatalf("%s deviated:\n%s", rep.ID, rep)
		}
	}
}

func BenchmarkE1Fig1Counterexample(b *testing.B) { benchExperiment(b, experiments.E1Fig1) }
func BenchmarkE2CompilerTolerance(b *testing.B)  { benchExperiment(b, experiments.E2Compiler) }
func BenchmarkE3BiddingServer(b *testing.B)      { benchExperiment(b, experiments.E3Bidding) }
func BenchmarkE4Theorem6(b *testing.B)           { benchExperiment(b, experiments.E4Theorem6) }
func BenchmarkE5Lemma7(b *testing.B)             { benchExperiment(b, experiments.E5Lemma7) }
func BenchmarkE6Dijkstra4(b *testing.B)          { benchExperiment(b, experiments.E6Dijkstra4) }
func BenchmarkE7Lemma9(b *testing.B)             { benchExperiment(b, experiments.E7Lemma9) }
func BenchmarkE8Dijkstra3(b *testing.B)          { benchExperiment(b, experiments.E8Dijkstra3) }
func BenchmarkE9NewThreeState(b *testing.B)      { benchExperiment(b, experiments.E9NewThreeState) }
func BenchmarkE10KState(b *testing.B)            { benchExperiment(b, experiments.E10KState) }
func BenchmarkE11Convergence(b *testing.B)       { benchExperiment(b, experiments.E11Convergence) }
func BenchmarkE12WrapperInterference(b *testing.B) {
	benchExperiment(b, experiments.E12WrapperInterference)
}
func BenchmarkE13RefinementHierarchy(b *testing.B) {
	benchExperiment(b, experiments.E13RefinementHierarchy)
}
func BenchmarkE14SynchronousDaemon(b *testing.B) {
	benchExperiment(b, experiments.E14SynchronousDaemon)
}
func BenchmarkE15FairDaemon(b *testing.B) { benchExperiment(b, experiments.E15FairDaemon) }
func BenchmarkE16ClusterRecovery(b *testing.B) {
	benchExperiment(b, experiments.E16ClusterRecovery)
}
func BenchmarkE17ChaosCampaign(b *testing.B) {
	benchExperiment(b, experiments.E17ChaosCampaign)
}
func BenchmarkE18CrashRecovery(b *testing.B) {
	benchExperiment(b, experiments.E18CrashRecovery)
}
func BenchmarkE19FleetScaling(b *testing.B) {
	benchExperiment(b, experiments.E19Fleet)
}
func BenchmarkE20JournalThroughput(b *testing.B) {
	benchExperiment(b, experiments.E20Journal)
}
func BenchmarkE21Retention(b *testing.B) {
	benchExperiment(b, experiments.E21Retention)
}
func BenchmarkE22GrayFailure(b *testing.B) {
	benchExperiment(b, experiments.E22GrayFailure)
}

// BenchmarkFairStabilizationCheck measures the weak-fairness decision
// procedure on the Lemma 9 composition.
func BenchmarkFairStabilizationCheck(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("Lemma9/N=%d", n), func(b *testing.B) {
			btr := ring.NewBTR(n)
			three := ring.NewThreeState(n)
			alpha, err := three.Abstraction(btr)
			if err != nil {
				b.Fatal(err)
			}
			lab := three.Lemma9Labeled()
			spec := btr.System()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := core.FairStabilizing(lab, spec, alpha); !rep.Holds {
					b.Fatal(rep.Verdict)
				}
			}
		})
	}
}

// BenchmarkEnumerate measures building ring automata: generating their
// guarded-command source and compiling it.
func BenchmarkEnumerate(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("Dijkstra3/N=%d", n), func(b *testing.B) {
			t := ring.NewThreeState(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = t.Dijkstra3()
			}
		})
	}
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("BTR/N=%d", n), func(b *testing.B) {
			r := ring.NewBTR(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = r.System()
			}
		})
	}
}

// BenchmarkStabilizationCheck measures the Section 2 decision procedure.
func BenchmarkStabilizationCheck(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("Dijkstra3-self/N=%d", n), func(b *testing.B) {
			d3 := ring.NewThreeState(n).Dijkstra3()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := core.SelfStabilizing(d3); !rep.Holds {
					b.Fatal(rep.Verdict)
				}
			}
		})
	}
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("Dijkstra3-to-BTR/N=%d", n), func(b *testing.B) {
			btr := ring.NewBTR(n)
			three := ring.NewThreeState(n)
			alpha, err := three.Abstraction(btr)
			if err != nil {
				b.Fatal(err)
			}
			d3 := three.Dijkstra3()
			spec := btr.System()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := core.Stabilizing(d3, spec, alpha); !rep.Holds {
					b.Fatal(rep.Verdict)
				}
			}
		})
	}
}

// BenchmarkSelfStabilizing and BenchmarkStabilizing measure the
// stabilization check on cold-check's shapes: ring programs at N = 6
// (2187 states) with one initial state, under an unlimited meter as the
// service runs them. A3-D3 checks AggressiveThree against Dijkstra3, a
// refine pair whose every edge is looked up in the other system.
func BenchmarkSelfStabilizing(b *testing.B) {
	d3 := ring.NewThreeState(6).Dijkstra3().WithInit([]int{0})
	b.Run("D3-N6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SelfStabilizingGas(mc.NewGas(nil, -1), d3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStabilizing(b *testing.B) {
	three := ring.NewThreeState(6)
	a3 := three.AggressiveThree().WithInit([]int{0})
	d3 := three.Dijkstra3().WithInit([]int{0})
	b.Run("A3-D3-N6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.StabilizingGas(mc.NewGas(nil, -1), a3, d3, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRefineBattery measures the four checks /v1/refine runs, in
// its order, on cold-check's refine shape: AggressiveThree against
// Dijkstra3 at N = 6 with one initial state. Every concrete edge is
// looked up in the abstract system, so it covers the edge lookups of
// core.everywhere and core.convergence.
func BenchmarkRefineBattery(b *testing.B) {
	three := ring.NewThreeState(6)
	a3 := three.AggressiveThree().WithInit([]int{0})
	d3 := three.Dijkstra3().WithInit([]int{0})
	b.Run("A3-D3-N6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := mc.NewGas(nil, -1)
			if _, err := core.RefinementInitGas(g, a3, d3, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := core.EverywhereRefinementGas(g, a3, d3, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := core.ConvergenceRefinementGas(g, a3, d3, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := core.StabilizingGas(g, a3, d3, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConvergenceRefinementCheck measures [C1 ⪯ BTR].
func BenchmarkConvergenceRefinementCheck(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("C1-BTR/N=%d", n), func(b *testing.B) {
			btr := ring.NewBTR(n)
			four := ring.NewFourState(n)
			alpha, err := four.Abstraction(btr)
			if err != nil {
				b.Fatal(err)
			}
			c1 := four.C1()
			spec := btr.System()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := core.ConvergenceRefinement(c1, spec, alpha); !rep.Holds {
					b.Fatal(rep.Verdict)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw move execution after
// convergence (token circulation). K-state rings run at K = P, the
// service default; at both sizes every action of the template has a
// table.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, tc := range []struct {
		family, name string
		p, k         int
	}{
		{"dijkstra3", "Dijkstra3", 8, 0}, {"dijkstra3", "Dijkstra3", 32, 0}, {"dijkstra3", "Dijkstra3", 128, 0},
		{"kstate", "KState", 32, 32}, {"kstate", "KState", 128, 128},
	} {
		b.Run(fmt.Sprintf("%s/P=%d", tc.name, tc.p), func(b *testing.B) {
			proto := newProto(tc.family, tc.p, tc.k)
			legit, err := sim.LegitimateConfig(proto)
			if err != nil {
				b.Fatal(err)
			}
			r := &sim.Runner{Proto: proto, Daemon: sim.NewRoundRobinDaemon(tc.p),
				MaxSteps: b.N, RunAfterConvergence: true}
			b.ResetTimer()
			if _, err := r.Run(legit); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkNewProtocol measures building a protocol, which /v1/ringsim,
// /v1/cluster and /v1/chaos do per request: compiling the template,
// lowering it, and filling the tables that fit. K-state at K = 64 and
// 128 fills tables; at K = 1000 its actions are too large to tabulate.
func BenchmarkNewProtocol(b *testing.B) {
	for _, tc := range []struct {
		family, name string
		p, k         int
	}{
		{"dijkstra3", "Dijkstra3/P=10000", 10000, 0},
		{"kstate", "KState/K=64", 64, 64}, {"kstate", "KState/K=128", 128, 128}, {"kstate", "KState/K=1000", 1000, 1000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newProto(tc.family, tc.p, tc.k)
			}
		})
	}
}

// BenchmarkSimConvergence measures recovery runs end to end.
func BenchmarkSimConvergence(b *testing.B) {
	for _, p := range []int{8, 16} {
		b.Run(fmt.Sprintf("Dijkstra3/P=%d", p), func(b *testing.B) {
			proto := newProto("dijkstra3", p, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := sim.MeasureConvergence(proto,
					func(run int) sim.Daemon { return sim.NewRandomDaemon(int64(run)) },
					10, p, 100000, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if stats.Converged != stats.Runs {
					b.Fatal("non-convergence")
				}
			}
		})
	}
}

// BenchmarkLiveRing measures the goroutine-per-process ring, recovering
// from two corrupted registers.
func BenchmarkLiveRing(b *testing.B) {
	for _, tc := range []struct {
		family, name string
		p, k         int
	}{{"dijkstra3", "Dijkstra3", 8, 0}, {"kstate", "KState", 128, 128}} {
		b.Run(fmt.Sprintf("%s/P=%d", tc.name, tc.p), func(b *testing.B) {
			proto := newProto(tc.family, tc.p, tc.k)
			start := perturbed(b, proto)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lr := &sim.LiveRing{Proto: proto, MaxSteps: 100000}
				res, err := lr.Run(start)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("live ring did not converge")
				}
			}
		})
	}
}

// BenchmarkClusterRing measures a stepped in-process cluster episode, one
// node per process, recovering from two corrupted registers.
func BenchmarkClusterRing(b *testing.B) {
	proto := newProto("kstate", 128, 128)
	start := perturbed(b, proto)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(context.Background(), cluster.Options{
			Proto: proto, Seed: int64(i), MaxSteps: 1_000_000, StopWhenStable: true}, start)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("cluster did not converge")
		}
	}
}

// perturbed is the protocol's legitimate configuration with registers 3
// and 5 corrupted.
func perturbed(b *testing.B, proto *sim.Protocol) sim.Config {
	legit, err := sim.LegitimateConfig(proto)
	if err != nil {
		b.Fatal(err)
	}
	start := append(sim.Config(nil), legit...)
	start[3] = (start[3] + 1) % proto.Domain(3)
	start[5] = (start[5] + 2) % proto.Domain(5)
	return start
}

// BenchmarkAblationBoxComposition compares the plain union against the
// priority composition used by Theorem 6 — the design decision DESIGN.md
// calls out (PriorityBox is what makes the abstract wrappers sound).
func BenchmarkAblationBoxComposition(b *testing.B) {
	r := ring.NewBTR(4)
	btr := r.System()
	w1, w2 := r.W1(), r.W2()
	b.Run("PlainBox", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = system.BoxAll(btr, w1, w2)
		}
	})
	b.Run("PriorityBox", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = system.PriorityBox(system.Box(btr, w1), w2)
		}
	})
}

// BenchmarkReachability measures the model checker's core sweep.
func BenchmarkReachability(b *testing.B) {
	for _, n := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("Dijkstra3/N=%d", n), func(b *testing.B) {
			d3 := ring.NewThreeState(n).Dijkstra3()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = mc.ReachFromInit(d3)
			}
		})
	}
}

// BenchmarkGCLCompile measures the guarded-command pipeline end to end
// (pipeline), and the enumeration layer alone on the ring families a
// cold check submits (D3, A3 and K-state with K = 3, each at N = 6).
func BenchmarkGCLCompile(b *testing.B) {
	b.Run("pipeline", benchGCLPipeline)
	for _, fam := range []struct{ name, src string }{
		{"D3-N6", ring.Dijkstra3GCL(6)},
		{"A3-N6", ring.AggressiveThreeGCL(6)},
		{"K3-N6", ring.KStateGCL(6, 3)},
	} {
		prog, err := gcl.Parse(fam.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gcl.CompileProgram("bench", prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLintExact measures analysis.Analyze with the enumeration tier
// on the same ring families, and on the fleet load generator's tiny
// one-variable programs (loadgen), which lie below the pool's floor.
func BenchmarkLintExact(b *testing.B) {
	for _, fam := range []struct{ name, src string }{
		{"D3-N6", ring.Dijkstra3GCL(6)},
		{"A3-N6", ring.AggressiveThreeGCL(6)},
		{"K3-N6", ring.KStateGCL(6, 3)},
		{"loadgen", fleet.LoadgenProgram(0)},
	} {
		prog, err := gcl.Parse(fam.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := analysis.Analyze(prog, analysis.Options{Exact: true})
				if err != nil || !res.Exact {
					b.Fatalf("exact tier did not complete: %v", err)
				}
			}
		})
	}
}

// BenchmarkLintEncode measures the lint response encode layer alone: the
// D3 N = 6 report (55 GCL007 diagnostics, ~17 KB) through the
// json.Encoder settings checkd writes responses with.
func BenchmarkLintEncode(b *testing.B) {
	prog, err := gcl.Parse(ring.Dijkstra3GCL(6))
	if err != nil {
		b.Fatal(err)
	}
	res, err := analysis.Analyze(prog, analysis.Options{Exact: true})
	if err != nil {
		b.Fatal(err)
	}
	resp := service.LintResponse{
		Program:         gcl.Fingerprint(prog),
		States:          res.States,
		Exact:           res.Exact,
		AnalyzerVersion: analysis.Version(),
		Errors:          analysis.ErrorCount(res.Diags),
		Diags:           res.Diags,
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(resp); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func benchGCLPipeline(b *testing.B) {
	b.ReportAllocs()
	const src = `
var c0 : 0..2;
var c1 : 0..2;
var c2 : 0..2;
var c3 : 0..2;
init c0 == 0 && c1 == 0 && c2 == 0 && c3 == 1;
action bottom: c1 == (c0 + 1) % 3 -> c0 := (c1 + 1) % 3;
action up1: c0 == (c1 + 1) % 3 -> c1 := c0;
action dn1: c2 == (c1 + 1) % 3 -> c1 := c2;
action up2: c1 == (c2 + 1) % 3 -> c2 := c1;
action dn2: c3 == (c2 + 1) % 3 -> c2 := c3;
action top: c2 == c0 && (c2 + 1) % 3 != c3 -> c3 := (c2 + 1) % 3;
`
	for i := 0; i < b.N; i++ {
		if _, err := repro.CompileGCL("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// serviceBenchProgram builds a small GCL program; varying the domain
// bound yields distinct programs with distinct cache keys.
func serviceBenchProgram(bound int) []byte {
	src := fmt.Sprintf("var x : 0..%d;\ninit x == 0;\naction tick: true -> x := (x + 1) %% %d;",
		bound, bound+1)
	body, _ := json.Marshal(map[string]string{"source": src})
	return body
}

func servicePost(b *testing.B, svc *service.Server, body []byte) {
	b.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/selfstab", bytes.NewReader(body))
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body)
	}
}

// BenchmarkServiceCacheHit measures a selfstab request answered from the
// verdict cache: parse + canonicalize + hash, no enumeration.
func BenchmarkServiceCacheHit(b *testing.B) {
	svc := service.New(service.Config{Workers: 2, QueueDepth: 16, CacheEntries: 16})
	defer svc.Close()
	body := serviceBenchProgram(4)
	servicePost(b, svc, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servicePost(b, svc, body)
	}
	if hits, _ := svc.CacheStats(); hits < uint64(b.N) {
		b.Fatalf("only %d cache hits over %d requests", hits, b.N)
	}
}

// BenchmarkServiceCacheMiss is the same request shape against a
// one-entry cache with two alternating programs, so every request
// misses and re-runs the full check — the contrast with CacheHit is
// what the cache buys.
func BenchmarkServiceCacheMiss(b *testing.B) {
	svc := service.New(service.Config{Workers: 2, QueueDepth: 16, CacheEntries: 1})
	defer svc.Close()
	bodies := [2][]byte{serviceBenchProgram(4), serviceBenchProgram(5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servicePost(b, svc, bodies[i%2])
	}
	if hits, _ := svc.CacheStats(); hits != 0 {
		b.Fatalf("%d unexpected cache hits", hits)
	}
}

// journalSuffixServer returns a journaled server whose history holds
// about events events in a replica's mix: each fresh check journals a
// request, a verdict and an outcome, and each cache hit between them a
// request and an outcome. The payloads are those of a fleet load
// generator's selfstab check, each verdict under a distinct key.
func journalSuffixServer(b *testing.B, events int) *service.Server {
	b.Helper()
	seed := service.New(service.Config{Workers: 1, QueueDepth: 4, JournalBackend: journal.NewMemBackend(nil)})
	defer seed.Close()
	check, _ := json.Marshal(service.SelfStabRequest{Source: fleet.LoadgenProgram(0)})
	for range 2 { // a miss, then a hit
		w := httptest.NewRecorder()
		seed.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/selfstab", bytes.NewReader(check)))
		if w.Code != http.StatusOK {
			b.Fatalf("selfstab: %d: %s", w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	seed.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/journal", nil))
	var page service.JournalRangeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		b.Fatal(err)
	}
	payload := map[string]json.RawMessage{}
	for _, ev := range page.Events {
		payload[ev.Kind] = ev.Data
	}
	var verdict map[string]json.RawMessage
	if err := json.Unmarshal(payload[journal.KindVerdict], &verdict); err != nil {
		b.Fatalf("verdict event: %v", err)
	}

	var raw []byte
	seq := uint64(0)
	add := func(kind string, data []byte) {
		seq++
		raw = append(raw, journal.EncodeEvent(journal.Event{Seq: seq, Kind: kind, Data: data})...)
	}
	for i := 0; int(seq) < events; i++ {
		add(journal.KindRequest, payload[journal.KindRequest])
		if i%2 == 0 {
			verdict["key"], _ = json.Marshal(fmt.Sprintf("%064x", i))
			data, _ := json.Marshal(verdict)
			add(journal.KindVerdict, data)
		}
		add(journal.KindOutcome, payload[journal.KindOutcome])
	}
	return service.New(service.Config{Workers: 1, QueueDepth: 4, JournalBackend: journal.NewMemBackend(raw)})
}

// BenchmarkJournalSuffix measures one anti-entropy suffix pull: encoding
// the next 256 verdicts from a cursor 2k and 20k events behind the
// journal head. The pull walks the journal in bounded windows, so its
// cost follows what it ships, not how far the cursor lags.
func BenchmarkJournalSuffix(b *testing.B) {
	svc := journalSuffixServer(b, 22_000)
	defer svc.Close()
	head := svc.JournalLastSeq()
	for _, lag := range []uint64{2_000, 20_000} {
		b.Run(fmt.Sprintf("lag=%dk", lag/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, n, hole := svc.EncodeJournalSuffix(head-lag, 256); n != 256 || hole {
					b.Fatalf("shipped %d verdicts (hole %v), want 256", n, hole)
				}
			}
		})
	}
}
