package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/fleet"
	"repro/internal/ring"
	"repro/internal/service"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlColdCheck  = "cold-check"
	wlHotCache   = "hot-cache"
	wlFleetFresh = "fleet-fresh"
	wlFleetGray  = "fleet-gray"
)

var workloads = []string{wlColdCheck, wlHotCache, wlFleetFresh, wlFleetGray}

func isFleet(workload string) bool { return workload == wlFleetFresh || workload == wlFleetGray }

// request is one generated request. name identifies the program (pair)
// within the workload, so (kind, name) is the verdict's identity.
type request struct {
	kind    string // service.KindSelfStab, KindLint or KindRefine
	name    string
	entry   int    // entry replica index (fleet workloads)
	body    []byte // the JSON request body
	rebuild func() request
}

func (r request) path() string { return "/v1/" + r.kind }

// newRequest builds a request from a function returning its program text
// (and, for refine, the abstract program's), which it keeps to rebuild
// the request after slim.
func newRequest(kind, name string, entry int, sources func() (source, abstract string)) request {
	source, abstract := sources()
	var v any
	if kind == service.KindRefine {
		v = service.RefineRequest{Concrete: source, Abstract: abstract}
	} else {
		v = service.SelfStabRequest{Source: source} // same wire shape as LintRequest
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return request{kind: kind, name: name, entry: entry, body: body,
		rebuild: func() request { return newRequest(kind, name, entry, sources) }}
}

// slim drops the body, so that a run's outcomes stay small however many
// requests it completes.
func (r request) slim() request {
	r.body = nil
	return r
}

// whole undoes slim.
func (r request) whole() request {
	if r.body == nil {
		return r.rebuild()
	}
	return r
}

// stream hands a workload's requests, made by a sequential generator, to
// the clients in a fixed order.
type stream struct {
	mu  sync.Mutex
	gen func() (request, bool)
}

// next returns the next request; ok is false once the stream is
// exhausted. It is safe for concurrent use.
func (s *stream) next() (req request, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen()
}

// kindDeck deals check kinds in a fixed selfstab:lint:refine ratio: each
// deck holds the ratio's counts in a seeded order, so every stretch of a
// run carries the same mix and only the order varies with the seed.
type kindDeck struct {
	rng   *rand.Rand
	full  []string
	cards []string
}

func newKindDeck(rng *rand.Rand, selfstab, lint, refine int) *kindDeck {
	d := &kindDeck{rng: rng}
	for kind, n := range map[string]int{service.KindSelfStab: selfstab, service.KindLint: lint, service.KindRefine: refine} {
		for i := 0; i < n; i++ {
			d.full = append(d.full, kind)
		}
	}
	sort.Strings(d.full) // map order must not leak into the deal
	return d
}

func (d *kindDeck) draw() string {
	if len(d.cards) == 0 {
		d.cards = append(d.cards[:0], d.full...)
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	k := d.cards[0]
	d.cards = d.cards[1:]
	return k
}

// selfAbstract is the abstract program of a request that checks a
// program against itself: the program for refine, none otherwise.
func selfAbstract(kind, source string) string {
	if kind == service.KindRefine {
		return source
	}
	return ""
}

// --- cold-check ---

// ringProgram is one internal/ring GCL generator output with its init
// predicate replaced by a single initial state.
type ringProgram struct {
	family string // d3 (Dijkstra3), a3 (AggressiveThree), k3 (KState, K = 3)
	n      int    // top process index; n+1 variables over 0..2
	init   int    // the initial state, as a base-3 number over the variables
}

func (p ringProgram) name() string { return fmt.Sprintf("%s/n%d/i%d", p.family, p.n, p.init) }

func (p ringProgram) source() string {
	var src, prefix string
	switch p.family {
	case "d3":
		src, prefix = ring.Dijkstra3GCL(p.n), "c"
	case "a3":
		src, prefix = ring.AggressiveThreeGCL(p.n), "c"
	case "k3":
		src, prefix = ring.KStateGCL(p.n, 3), "x"
	default:
		panic("unknown ring family " + p.family)
	}
	return withInit(src, prefix, p.n, p.init)
}

// withInit replaces the generator's init line with one pinning variable
// prefix<j> to digit j of init in base 3.
func withInit(src, prefix string, n, init int) string {
	var b strings.Builder
	b.WriteString("init ")
	for j := 0; j <= n; j++ {
		if j > 0 {
			b.WriteString(" && ")
		}
		fmt.Fprintf(&b, "%s%d == %d", prefix, j, init%3)
		init /= 3
	}
	b.WriteString(";")
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "init ") {
			lines[i] = b.String()
			return strings.Join(lines, "\n")
		}
	}
	panic("ring generator emitted no init line")
}

// coldN is the cold-check ring size. One size keeps each kind's latency in
// one mode, so that the p50 falls inside the selfstab mode instead of in
// a sparse gap between sizes, where run-to-run noise moves it most;
// N = 6 (2187 states) is the largest of the ring sizes the service
// checks in milliseconds, and leaves the most programs.
const coldN = 6

// coldPrograms is the cold-check population of one family set: every
// initial state of the 3^(coldN+1) space.
func coldPrograms(families ...string) []ringProgram {
	size := 1
	for j := 0; j <= coldN; j++ {
		size *= 3
	}
	var out []ringProgram
	for _, fam := range families {
		for init := 0; init < size; init++ {
			out = append(out, ringProgram{family: fam, n: coldN, init: init})
		}
	}
	return out
}

// coldStream never repeats a (kind, program) pair: each kind draws from
// its own seeded permutation of its population, and the stream ends when
// one of them runs out. selfstab and lint check single ring programs;
// refine checks AggressiveThree against Dijkstra3 and Dijkstra3 against
// AggressiveThree, with the same initial state (KState declares other
// variables, so it is no refine partner). The mix is selfstab 50 /
// lint 25 / refine 25.
func coldStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	single := coldPrograms("d3", "a3", "k3")
	concrete := coldPrograms("a3", "d3")
	order := map[string][]int{
		service.KindSelfStab: rng.Perm(len(single)),
		service.KindLint:     rng.Perm(len(single)),
		service.KindRefine:   rng.Perm(len(concrete)),
	}
	used := map[string]int{}
	deck := newKindDeck(rng, 2, 1, 1)
	return &stream{gen: func() (request, bool) {
		kind := deck.draw()
		i := used[kind]
		if i == len(order[kind]) {
			return request{}, false
		}
		used[kind]++
		if kind == service.KindRefine {
			c := concrete[order[kind][i]]
			a := ringProgram{family: "d3", n: c.n, init: c.init}
			if c.family == "d3" {
				a.family = "a3"
			}
			return newRequest(kind, c.name()+"~"+a.name(), 0, func() (string, string) { return c.source(), a.source() }), true
		}
		p := single[order[kind][i]]
		return newRequest(kind, p.name(), 0, func() (string, string) { return p.source(), "" }), true
	}}
}

// --- hot-cache ---

// namedProgram is one member of the hot-cache population.
type namedProgram struct {
	name, source string
}

// hotPrograms is the hot-cache population in Zipf rank order: the GCL
// examples under examples/gcl (read from the checkout), Dijkstra3 at
// N = 3..6, and fleet.LoadgenProgram(0..19).
func hotPrograms(root string) ([]namedProgram, error) {
	files, err := filepath.Glob(filepath.Join(root, "examples", "gcl", "*.gcl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no examples/gcl/*.gcl under %s: run from the root of the repository", root)
	}
	sort.Strings(files)
	var out []namedProgram
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, namedProgram{"examples/" + filepath.Base(f), string(src)})
	}
	for n := 3; n <= 6; n++ {
		out = append(out, namedProgram{fmt.Sprintf("d3/n%d", n), ring.Dijkstra3GCL(n)})
	}
	for i := 0; i < 20; i++ {
		out = append(out, namedProgram{fmt.Sprintf("loadgen/%d", i), fleet.LoadgenProgram(i)})
	}
	return out, nil
}

// hotRequests lists every (kind, program) pair of the population that the
// checker accepts; refine checks a program against itself. The pairs the
// checker rejects (lint-demo.gcl does not compile, so only lint takes it)
// are left out, so no request of the workload fails.
func hotRequests(progs []namedProgram, o *oracle) ([]request, error) {
	var out []request
	for _, kind := range []string{service.KindSelfStab, service.KindLint, service.KindRefine} {
		for _, p := range progs {
			req := newRequest(kind, p.name, 0, func() (string, string) { return p.source, selfAbstract(kind, p.source) })
			if _, err := o.expect(req); err != nil {
				continue
			}
			out = append(out, req)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hot-cache population is empty")
	}
	return out, nil
}

// hotStream draws from the warmed population: kind by a 60/30/10 mix,
// program by Zipf (s = 1.2) over the kind's population in rank order.
// It never ends.
func hotStream(seed int64, population []request) *stream {
	rng := rand.New(rand.NewSource(seed))
	byKind := map[string][]request{}
	for _, r := range population {
		byKind[r.kind] = append(byKind[r.kind], r)
	}
	zipf := map[string]*rand.Zipf{}
	for kind, rs := range byKind {
		zipf[kind] = rand.NewZipf(rng, 1.2, 1, uint64(len(rs)-1))
	}
	deck := newKindDeck(rng, 6, 3, 1)
	return &stream{gen: func() (request, bool) {
		kind := deck.draw()
		return byKind[kind][zipf[kind].Uint64()], true
	}}
}

// --- fleet-fresh / fleet-gray ---

// fleetRecent is how many recent requests a repeat draws from.
const fleetRecent = 32

// fleetStream enters replica i mod replicas for request i. Half of the
// requests carry a fresh fleet.LoadgenProgram (a new id every time), half
// repeat the (kind, program) of one of the last fleetRecent requests. The
// kind mix is loadgen's 60/30/10; refine checks a program against itself.
// It never ends.
func fleetStream(seed int64, replicas int) *stream {
	rng := rand.New(rand.NewSource(seed))
	type pick struct {
		kind string
		prog int
	}
	var recent []pick
	i, fresh := 0, 0
	deck := newKindDeck(rng, 6, 3, 1)
	return &stream{gen: func() (request, bool) {
		var p pick
		if len(recent) == 0 || rng.Intn(2) == 0 {
			p = pick{deck.draw(), fresh}
			fresh++
		} else {
			p = recent[rng.Intn(len(recent))]
		}
		if len(recent) == fleetRecent {
			recent = recent[1:]
		}
		recent = append(recent, p)
		req := newRequest(p.kind, fmt.Sprintf("loadgen/%d", p.prog), i%replicas, func() (string, string) {
			src := fleet.LoadgenProgram(p.prog)
			return src, selfAbstract(p.kind, src)
		})
		i++
		return req, true
	}}
}
