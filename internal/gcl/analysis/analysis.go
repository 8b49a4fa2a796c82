package analysis

import (
	"repro/internal/gcl"
	"repro/internal/mc"
)

// DefaultExactStateLimit bounds the state spaces the exact tier will
// enumerate when Options leaves ExactStateLimit zero.
const DefaultExactStateLimit = 1 << 16

// Options configures Analyze. The zero value runs every registered
// analyzer at the interval tier only.
type Options struct {
	// Analyzers restricts the run to the given analyzers; nil means all
	// registered ones.
	Analyzers []*Analyzer
	// Exact enables the enumeration tier for programs whose state space
	// is at most ExactStateLimit.
	Exact bool
	// ExactStateLimit caps the exact tier's state-space size
	// (default DefaultExactStateLimit).
	ExactStateLimit int
	// Gas meters the exact tier's sweep (nil means unlimited). When the
	// budget runs out mid-sweep the exact tier's partial results are
	// discarded and the interval tier's verdicts stand, marked approx.
	Gas *mc.Gas
}

// Result is a completed analysis.
type Result struct {
	// Diags is the sorted, deduplicated diagnostic list.
	Diags []Diag
	// States is the declared state-space size (capped at
	// ExactStateLimit+1 when larger, to avoid overflow on absurd
	// declarations).
	States int
	// Exact reports whether the enumeration tier ran to completion, in
	// which case every decidable diagnostic carries exact confidence.
	Exact bool
}

// Analyze runs the analyzer registry over a program. The program is
// (re-)checked first — Check is idempotent and resolves the
// identifier indices the abstract evaluator needs; a check failure is
// returned as the error. Budget exhaustion in the exact tier is not
// an error: the result simply stays at approx confidence.
func Analyze(prog *gcl.Program, opts Options) (*Result, error) {
	if err := gcl.Check(prog); err != nil {
		return nil, err
	}
	return AnalyzeChecked(prog, opts), nil
}

// AnalyzeChecked is Analyze for a program that has already passed
// gcl.Check — a server that checks every submission at admission need
// not check it twice.
func AnalyzeChecked(prog *gcl.Program, opts Options) *Result {
	limit := opts.ExactStateLimit
	if limit <= 0 {
		limit = DefaultExactStateLimit
	}
	pass := &Pass{Prog: prog, Top: declaredEnv(prog)}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = registry
	}
	res := &Result{States: gcl.StateBound(prog, limit)}
	// The exact tier runs first: when it completes, the analyzers whose
	// every finding it would replace need not run.
	var facts *exactFacts
	if opts.Exact && res.States <= limit {
		facts, _ = runExact(prog, opts.Gas)
	}
	var diags []Diag
	for _, a := range analyzers {
		if facts == nil || !replacedByExact(a) {
			diags = append(diags, a.Run(pass)...)
		}
	}
	if facts != nil {
		diags = mergeExact(diags, exactDiags(prog, facts, len(diags)))
		res.Exact = true
	}
	res.Diags = Sort(diags)
	return res
}
