package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
	"repro/internal/ring"
)

// ringVariant pins the first two variables of a ring program's init to
// a and b, so one family yields nine distinct programs and nine cache
// misses.
func ringVariant(src, prefix string, a, b int) string {
	from := fmt.Sprintf("init %s0 == 0 && %s1 == 0", prefix, prefix)
	if !strings.Contains(src, from) {
		panic("ring program without the expected init line")
	}
	return strings.Replace(src, from, fmt.Sprintf("init %s0 == %d && %s1 == %d", prefix, a, prefix, b), 1)
}

// compileKept compiles a program whose system is never released.
func compileKept(t *testing.T, name, src string) (*gcl.Program, *gcl.Compiled) {
	t.Helper()
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gcl.CompileProgram(name, prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, c
}

func unreleasedSelfStab(t *testing.T, src string) SelfStabResponse {
	prog, c := compileKept(t, "program", src)
	rep := core.SelfStabilizing(c.System)
	return SelfStabResponse{Program: gcl.Fingerprint(prog), States: c.System.NumStates(),
		Verdict: verdictJSON(rep.Verdict, c.System), LegitimateStates: len(rep.Legitimate)}
}

func unreleasedRefine(t *testing.T, concrete, abstract string) RefineResponse {
	pc, cc := compileKept(t, "concrete", concrete)
	pa, ca := compileKept(t, "abstract", abstract)
	c, a := cc.System, ca.System
	vInit := core.RefinementInit(c, a, nil)
	vEvery := core.EverywhereRefinement(c, a, nil)
	vConv := core.ConvergenceRefinement(c, a, nil).Verdict
	vStab := core.Stabilizing(c, a, nil).Verdict
	return RefineResponse{Concrete: gcl.Fingerprint(pc), Abstract: gcl.Fingerprint(pa), States: c.NumStates(),
		RefinementInit: verdictJSON(vInit, c), Everywhere: verdictJSON(vEvery, c),
		Convergence: verdictJSON(vConv, c), Stabilizing: verdictJSON(vStab, c),
		Holds: vInit.Holds && vEvery.Holds && vConv.Holds && vStab.Holds}
}

// lintAlone lints a program outside the service, with no other check
// running beside it.
func lintAlone(t *testing.T, src string) LintResponse {
	prog, err := gcl.Parse(src)
	if err == nil {
		err = gcl.Check(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, analysis.Options{Exact: true})
	if err != nil || !res.Exact {
		t.Fatalf("exact tier did not complete: %v", err)
	}
	return LintResponse{Program: gcl.Fingerprint(prog), States: res.States, Exact: true,
		AnalyzerVersion: analysis.Version(), Errors: analysis.ErrorCount(res.Diags), Diags: res.Diags}
}

// TestConcurrentMissesMatchUnreleased runs selfstab, refine and lint
// misses from four clients at once on four workers, so the rows and SCC
// arrays one check releases, and the successor rows of the exact lint
// tier, are reused by checks running beside it, and compares every
// response with the same checks on systems that are never released (for
// lint, run alone). Run it under -race: a check that read rows after
// giving them back would race with the check that reuses them.
func TestConcurrentMissesMatchUnreleased(t *testing.T) {
	const n = 5 // 729 states: the rows and SCC arrays are large enough to pool
	type job struct {
		path string
		body any
		want any
	}
	var jobs []job
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			d3 := ringVariant(ring.Dijkstra3GCL(n), "c", a, b)
			a3 := ringVariant(ring.AggressiveThreeGCL(n), "c", a, b)
			k3 := ringVariant(ring.KStateGCL(n, 3), "x", a, b)
			for _, src := range []string{d3, a3, k3} {
				jobs = append(jobs, job{"/v1/selfstab", SelfStabRequest{Source: src}, unreleasedSelfStab(t, src)},
					job{"/v1/lint", LintRequest{Source: src}, lintAlone(t, src)})
			}
			jobs = append(jobs,
				job{"/v1/refine", RefineRequest{Concrete: a3, Abstract: d3}, unreleasedRefine(t, a3, d3)},
				job{"/v1/refine", RefineRequest{Concrete: d3, Abstract: a3}, unreleasedRefine(t, d3, a3)})
		}
	}

	svc := New(Config{Workers: 4, QueueDepth: 64, CacheEntries: 256})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	for client := 0; client < 4; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				j := jobs[i]
				resp, body := postJSON(t, ts.URL+j.path, j.body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s #%d: status %d: %s", j.path, i, resp.StatusCode, body)
					continue
				}
				got := reflect.New(reflect.TypeOf(j.want))
				if err := json.Unmarshal(body, got.Interface()); err != nil {
					t.Errorf("%s #%d: %v", j.path, i, err)
					continue
				}
				got.Elem().FieldByName("ElapsedUS").SetInt(0)
				if got.Elem().FieldByName("Cached").Bool() {
					t.Errorf("%s #%d: answered from the cache, want a miss", j.path, i)
				}
				if !reflect.DeepEqual(got.Elem().Interface(), j.want) {
					t.Errorf("%s #%d:\n got  %+v\n want %+v", j.path, i, got.Elem().Interface(), j.want)
				}
			}
		}()
	}
	wg.Wait()
}
