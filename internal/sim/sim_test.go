package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/system"
)

// newProto builds a protocol family the tests know to be valid.
func newProto(family string, p, k int) *Protocol {
	proto, err := NewProtocol(family, p, k)
	if err != nil {
		panic(err)
	}
	return proto
}

// automatonOf enumerates a sim protocol into an automaton over the product
// of its register domains (register i is variable i), with the legitimate
// configurations as initial states.
func automatonOf(p *Protocol) *system.System {
	vars := make([]system.Var, p.Procs())
	for i := range vars {
		vars[i] = system.Int(fmt.Sprintf("r%d", i), p.Domain(i))
	}
	sp := system.NewSpace(vars...)
	b := system.NewSpaceBuilder(p.Name(), sp)
	cfg := make(Config, p.Procs())
	for s := 0; s < sp.Size(); s++ {
		sp.Decode(s, system.Vals(cfg))
		for _, m := range EnabledMoves(p, cfg) {
			old := cfg[m.Proc]
			cfg[m.Proc] = m.NewVal
			b.AddTransition(s, sp.Encode(system.Vals(cfg)))
			cfg[m.Proc] = old
		}
		if p.Legitimate(cfg) {
			b.AddInit(s)
		}
	}
	return b.Build()
}

// TestSimProtocolsStabilize runs the model checker on the automata
// enumerated from the simulator's protocols: every protocol, exactly as
// the simulator executes it, is self-stabilizing.
func TestSimProtocolsStabilize(t *testing.T) {
	protos := []*Protocol{
		newProto("dijkstra3", 4, 0),
		newProto("dijkstra4", 4, 0),
		newProto("kstate", 4, 4),
		newProto("newthree", 4, 0),
	}
	for _, p := range protos {
		sys := automatonOf(p)
		rep := core.SelfStabilizing(sys)
		if !rep.Holds {
			t.Fatalf("%s: %s", p.Name(), rep.Verdict)
		}
	}
}

func TestTokensNeverZeroDuringRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []*Protocol{newProto("dijkstra3", 5, 0), newProto("dijkstra4", 5, 0), newProto("kstate", 5, 5)} {
		for trial := 0; trial < 20; trial++ {
			start := RandomConfig(p, rng)
			if TokenCount(p, start) == 0 {
				t.Fatalf("%s: tokenless random config %v", p.Name(), start)
			}
		}
	}
}

func TestRunnerConvergesFromRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	protos := []*Protocol{newProto("dijkstra3", 6, 0), newProto("dijkstra4", 6, 0), newProto("kstate", 6, 6), newProto("newthree", 6, 0)}
	for _, p := range protos {
		for trial := 0; trial < 25; trial++ {
			r := &Runner{Proto: p, Daemon: NewRandomDaemon(int64(trial)), MaxSteps: 5000}
			res, err := r.Run(RandomConfig(p, rng))
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if !res.Converged {
				t.Fatalf("%s: did not converge from random config (trial %d)", p.Name(), trial)
			}
			if !p.Legitimate(res.Final) {
				t.Fatalf("%s: final config not legitimate", p.Name())
			}
		}
	}
}

func TestRunnerConvergesUnderAllDaemons(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	daemons := []func() Daemon{
		func() Daemon { return NewRandomDaemon(1) },
		func() Daemon { return NewRoundRobinDaemon(p.Procs()) },
		func() Daemon { return NewGreedyDaemon(p) },
	}
	rng := rand.New(rand.NewSource(3))
	for _, mk := range daemons {
		d := mk()
		r := &Runner{Proto: p, Daemon: d, MaxSteps: 5000}
		res, err := r.Run(RandomConfig(p, rng))
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("daemon %s: no convergence", d.Name())
		}
	}
}

func TestDijkstra3TokenInvariants(t *testing.T) {
	// Privileges never vanish entirely, and from a legitimate
	// configuration every move preserves the unique privilege. (Token
	// count is NOT monotone in fault states — Dijkstra's bottom rule can
	// create a privilege during recovery; the stabilization proofs rely
	// on a finer variant function, and the model checker verifies the end
	// result.)
	p := newProto("dijkstra3", 5, 0)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		c := RandomConfig(p, rng)
		legit := p.Legitimate(c)
		for _, m := range EnabledMoves(p, c) {
			next := c.Clone()
			next[m.Proc] = m.NewVal
			after := TokenCount(p, next)
			if after == 0 {
				t.Fatalf("move %+v killed all tokens at %v", m, c)
			}
			if legit && after != 1 {
				t.Fatalf("move %+v broke mutual exclusion from legit %v", m, c)
			}
		}
	}
}

func TestCorrupt(t *testing.T) {
	p := newProto("dijkstra3", 5, 0)
	legit, err := LegitimateConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	out := Corrupt(p, legit, 2, rng)
	if len(out) != len(legit) {
		t.Fatal("length changed")
	}
	if err := Validate(p, out); err != nil {
		t.Fatalf("corrupted config invalid: %v", err)
	}
	// Corruption must not alias the input.
	out[0] = (out[0] + 1) % 3
	if err := Validate(p, legit); err != nil {
		t.Fatal("corrupt aliased its input")
	}
	// k larger than P is clamped.
	_ = Corrupt(p, legit, 100, rng)
}

func TestLegitimateConfigAllProtocols(t *testing.T) {
	for _, p := range []*Protocol{newProto("dijkstra3", 5, 0), newProto("dijkstra4", 5, 0), newProto("kstate", 5, 4), newProto("newthree", 5, 0)} {
		c, err := LegitimateConfig(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !p.Legitimate(c) {
			t.Fatalf("%s: returned config not legitimate", p.Name())
		}
	}
}

func TestMeasureConvergence(t *testing.T) {
	p := newProto("dijkstra3", 6, 0)
	stats, err := MeasureConvergence(p,
		func(run int) Daemon { return NewRandomDaemon(int64(run)) },
		30, 3, 5000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged != stats.Runs {
		t.Fatalf("only %d/%d runs converged", stats.Converged, stats.Runs)
	}
	if stats.MeanSteps <= 0 || stats.MaxSteps < int(stats.MeanSteps) {
		t.Fatalf("stats implausible: %+v", stats)
	}
}

// TestMeasureConvergenceHonorsDeadline: a single long run over a large
// ring (the largest /v1/ringsim admits) stops at its deadline instead of
// running out its step budget.
func TestMeasureConvergenceHonorsDeadline(t *testing.T) {
	p := newProto("dijkstra3", 10_000, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	started := time.Now()
	_, err := MeasureConvergenceCtx(ctx, p,
		func(run int) Daemon { return NewRandomDaemon(int64(run)) },
		1, 10_000, 200_000, 1)
	if elapsed := time.Since(started); !errors.Is(err, context.DeadlineExceeded) || elapsed > time.Second {
		t.Fatalf("MeasureConvergenceCtx returned %v after %v, want %v within 1s",
			err, elapsed, context.DeadlineExceeded)
	}
}

func TestRunnerTokenCirculation(t *testing.T) {
	// After convergence the single token keeps circulating: every rule of
	// Dijkstra3 fires during a long run from a legitimate configuration.
	p := newProto("dijkstra3", 4, 0)
	legit, err := LegitimateConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	fires := map[string]int{}
	r := &Runner{Proto: p, Daemon: NewRoundRobinDaemon(p.Procs()), MaxSteps: 200,
		RunAfterConvergence: true, OnStep: func(step int, _ Config, tokens int, m Move) {
			if tokens != 1 {
				t.Errorf("token count %d at step %d of legitimate run", tokens, step)
			}
			steps++
			fires[m.Rule]++
		}}
	res, err := r.Run(legit)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []string{"bottom", "top", "up", "dn"} {
		if fires[rule] == 0 {
			t.Fatalf("rule %s never fired: %v", rule, fires)
		}
	}
	if steps != 200 || res.MaxTokens != 1 {
		t.Fatalf("legitimate run: %d steps, max tokens %d; want 200 steps, 1 token", steps, res.MaxTokens)
	}
}

func TestRunnerErrors(t *testing.T) {
	p := newProto("dijkstra3", 4, 0)
	if _, err := (&Runner{Proto: p, Daemon: NewRandomDaemon(1)}).Run(make(Config, 4)); err == nil {
		t.Fatal("zero MaxSteps accepted")
	}
	if _, err := (&Runner{Proto: p, Daemon: NewRandomDaemon(1), MaxSteps: 10}).Run(make(Config, 3)); err == nil {
		t.Fatal("short config accepted")
	}
	bad := Config{9, 0, 0, 0}
	if _, err := (&Runner{Proto: p, Daemon: NewRandomDaemon(1), MaxSteps: 10}).Run(bad); err == nil {
		t.Fatal("out-of-domain config accepted")
	}
}

func TestWrapperActivityNewThree(t *testing.T) {
	// The Section 5.1 interference argument, measured: during recovery
	// runs W1″ fires only when tokens have vanished, and W2′ deletions
	// plus endpoint absorptions make up the difference. Here we check the
	// bookkeeping: runs converge and the W1″ rule fires at least once
	// when starting from the all-equal (tokenless-middle) configuration.
	p := newProto("newthree", 5, 0)
	start := Config{1, 1, 1, 1, 1}
	r := &Runner{Proto: p, Daemon: NewRandomDaemon(2), MaxSteps: 1000}
	res, err := r.Run(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence from all-equal start")
	}
}

func TestLiveRingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, p := range []*Protocol{newProto("dijkstra3", 5, 0), newProto("dijkstra4", 5, 0), newProto("kstate", 5, 5)} {
		lr := &LiveRing{Proto: p, MaxSteps: 100000}
		res, err := lr.Run(RandomConfig(p, rng))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s: live ring did not converge", p.Name())
		}
		if !p.Legitimate(res.Final) {
			t.Fatalf("%s: final not legitimate", p.Name())
		}
	}
}

func TestLiveRingImmediateLegitimacy(t *testing.T) {
	p := newProto("dijkstra3", 4, 0)
	legit, err := LegitimateConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	lr := &LiveRing{Proto: p, MaxSteps: 10}
	res, err := lr.Run(legit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestLiveRingValidation(t *testing.T) {
	p := newProto("dijkstra3", 4, 0)
	if _, err := (&LiveRing{Proto: p}).Run(make(Config, 4)); err == nil {
		t.Fatal("zero MaxSteps accepted")
	}
	if _, err := (&LiveRing{Proto: p, MaxSteps: 5}).Run(make(Config, 2)); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestDaemonDeterminism(t *testing.T) {
	p := newProto("dijkstra3", 6, 0)
	run := func(seed int64) []int {
		r := &Runner{Proto: p, Daemon: NewRandomDaemon(seed), MaxSteps: 2000}
		rng := rand.New(rand.NewSource(123))
		res, err := r.Run(RandomConfig(p, rng))
		if err != nil {
			t.Fatal(err)
		}
		return res.Final
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seeds produced different runs")
		}
	}
}

func TestProtocolConstructorValidation(t *testing.T) {
	for _, tc := range []struct {
		family string
		p, k   int
		want   string
	}{
		{"dijkstra3", 2, 0, "dijkstra3 needs at least 3 processes, got 2"},
		{"dijkstra4", 2, 0, "dijkstra4 needs at least 3 processes, got 2"},
		{"kstate", 2, 4, "kstate needs at least 3 processes, got 2"},
		{"kstate", 4, 1, "kstate needs k ≥ 2, got 1"},
		{"newthree", 2, 0, "newthree needs at least 3 processes, got 2"},
		{"dijkstra5", 4, 0, `unknown family "dijkstra5" (want dijkstra3 | dijkstra4 | kstate | newthree)`},
	} {
		_, err := NewProtocol(tc.family, tc.p, tc.k)
		if err == nil || err.Error() != tc.want {
			t.Errorf("NewProtocol(%q, %d, %d) = %v, want %q", tc.family, tc.p, tc.k, err, tc.want)
		}
		if check := CheckFamily(tc.family, tc.p, tc.k); check == nil || check.Error() != tc.want {
			t.Errorf("CheckFamily(%q, %d, %d) = %v, want %q", tc.family, tc.p, tc.k, check, tc.want)
		}
	}
	if _, err := NewProtocol("dijkstra5", 4, 0); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("unknown family error %v does not wrap ErrUnknownFamily", err)
	}
}
