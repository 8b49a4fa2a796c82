package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gcl"
)

// Pass carries the shared, precomputed context every analyzer reads:
// the checked program and its top abstract state. Analyzers are
// independent — each returns its own diagnostics and never mutates
// the pass.
type Pass struct {
	Prog *gcl.Program
	// Top is the abstract state induced by the declarations alone.
	Top env

	guards []guardState // lazily computed, shared by the analyzers
}

// Analyzer is one registered check over a checked program.
type Analyzer struct {
	// Name is a short stable identifier (also part of Version).
	Name string
	// Doc is a one-line description.
	Doc string
	// Codes lists the diagnostic codes the analyzer can emit.
	Codes []Code
	// Run produces the analyzer's diagnostics.
	Run func(p *Pass) []Diag
}

// Analyzers returns the registry of interval-tier analyzers, in a
// stable order. The exact tier (exact.go) is not an Analyzer: it
// post-processes the whole diagnostic set against an enumeration of
// the state space.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name:  "guards",
			Doc:   "unsatisfiable (dead) and tautological guards",
			Codes: []Code{CodeDeadGuard, CodeTautologyGuard},
			Run:   runGuards,
		},
		{
			Name:  "domains",
			Doc:   "assignments whose value can leave the target's declared domain",
			Codes: []Code{CodeDomainEscape},
			Run:   runDomains,
		},
		{
			Name:  "vars",
			Doc:   "unused and write-only variables",
			Codes: []Code{CodeUnusedVar, CodeWriteOnlyVar},
			Run:   runVars,
		},
		{
			Name:  "stutter",
			Doc:   "actions whose every assignment provably rewrites the current value",
			Codes: []Code{CodeStutterAction},
			Run:   runStutter,
		},
		{
			Name:  "overlap",
			Doc:   "guard pairs that are provably co-enabled",
			Codes: []Code{CodeOverlappingGuards},
			Run:   runOverlap,
		},
		{
			Name:  "init",
			Doc:   "unsatisfiable init predicates",
			Codes: []Code{CodeInitUnsat},
			Run:   runInit,
		},
		{
			Name:  "constcond",
			Doc:   "condition subexpressions that are constant over the declared domains",
			Codes: []Code{CodeConstCond},
			Run:   runConstCond,
		},
		{
			Name:  "reachable",
			Doc:   "actions whose guard is satisfiable but statically unreachable from init",
			Codes: []Code{CodeUnreachableStatic},
			Run:   runReachable,
		},
	}
}

// Version identifies the analyzer set for cache keying: the engine
// revision plus every registered analyzer name. Adding, removing, or
// renaming an analyzer changes the version, so cached lint verdicts
// from an older engine are never served for a newer one.
func Version() string { return version }

// registry is the analyzer set Analyze runs by default, and version its
// Version: both are made once, not per lint request.
var (
	registry = Analyzers()
	version  = func() string {
		names := make([]string, 0, len(registry))
		for _, a := range registry {
			names = append(names, a.Name)
		}
		sort.Strings(names)
		return "v1/" + strings.Join(names, ",")
	}()
)

// guardState classifies one action's guard under the interval tier.
type guardState struct {
	// val is the guard's abstract value over the top state.
	val Interval
	// refined is the top state narrowed by the guard's recognizable
	// conjuncts; meaningful only when sat is true.
	refined env
	// sat is false when refinement proved the guard contradictory.
	sat bool
}

func (p *Pass) guardStates() []guardState {
	if p.guards == nil {
		p.guards = make([]guardState, len(p.Prog.Actions))
		for i := range p.Prog.Actions {
			a := &p.Prog.Actions[i]
			refined, sat := refineByGuard(p.Prog, a.Guard, p.Top)
			p.guards[i] = guardState{val: evalExpr(p.Prog, a.Guard, p.Top), refined: refined, sat: sat}
		}
	}
	return p.guards
}

// deadGuard reports whether the interval tier proves the guard never
// holds: either its abstract value is definitely false (or empty —
// evaluation always errors, so it is never *true*), or constraint
// propagation emptied a variable's domain.
func (g guardState) dead() bool {
	return g.val == ivFalse || g.val.IsEmpty() || !g.sat
}

func runGuards(p *Pass) []Diag {
	var diags []Diag
	for i, g := range p.guardStates() {
		a := &p.Prog.Actions[i]
		switch {
		case g.dead():
			diags = append(diags, Diag{
				Pos: a.Guard.Position(), Code: CodeDeadGuard, Severity: SevWarning,
				Msg: fmt.Sprintf("guard of action %q can never hold over the declared domains; the action is dead", a.Name),
			})
		case g.val == ivTrue:
			if _, isLit := a.Guard.(*gcl.BoolLit); !isLit {
				diags = append(diags, Diag{
					Pos: a.Guard.Position(), Code: CodeTautologyGuard, Severity: SevInfo,
					Msg: fmt.Sprintf("guard of action %q is always true; write the literal `true`", a.Name),
				})
			}
		}
	}
	return diags
}

func runDomains(p *Pass) []Diag {
	var diags []Diag
	for i, g := range p.guardStates() {
		if g.dead() {
			continue // GCL001 already covers the action
		}
		a := &p.Prog.Actions[i]
		for _, as := range a.Assigns {
			vi := identIndex(p.Prog, as.Name)
			decl := p.Prog.Vars[vi]
			domain := p.Top[vi]
			rhs := evalExpr(p.Prog, as.Expr, g.refined)
			switch {
			case rhs.Disjoint(domain) && !rhs.IsEmpty():
				diags = append(diags, Diag{
					Pos: as.Pos, Code: CodeDomainEscape, Severity: SevError,
					Msg: fmt.Sprintf("assignment to %q always leaves its domain %s whenever action %q fires (value in [%d, %d])",
						as.Name, domainString(decl), a.Name, rhs.Lo, rhs.Hi),
				})
			case !rhs.Within(domain):
				diags = append(diags, Diag{
					Pos: as.Pos, Code: CodeDomainEscape, Severity: SevWarning,
					Msg: fmt.Sprintf("assignment to %q may leave its domain %s (value in [%d, %d])",
						as.Name, domainString(decl), rhs.Lo, rhs.Hi),
				})
			}
		}
	}
	return diags
}

func domainString(v gcl.VarDecl) string { return string(appendDomain(nil, v)) }

// appendDomain appends v's domain, "bool" or "lo..hi", to dst.
func appendDomain(dst []byte, v gcl.VarDecl) []byte {
	if v.IsBool {
		return append(dst, "bool"...)
	}
	dst = strconv.AppendInt(dst, int64(v.Lo), 10)
	dst = append(dst, ".."...)
	return strconv.AppendInt(dst, int64(v.Hi), 10)
}

func identIndex(p *gcl.Program, name string) int {
	for i, v := range p.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1 // unreachable after Check
}

func runVars(p *Pass) []Diag {
	read := make([]bool, len(p.Prog.Vars))
	written := make([]bool, len(p.Prog.Vars))
	writeSites := make([][]gcl.Pos, len(p.Prog.Vars))
	markReads := func(ex gcl.Expr) {
		walkExpr(ex, func(n gcl.Expr) {
			if id, isIdent := n.(*gcl.Ident); isIdent {
				read[id.Index] = true
			}
		})
	}
	markReads(p.Prog.Init)
	for i := range p.Prog.Actions {
		a := &p.Prog.Actions[i]
		markReads(a.Guard)
		for _, as := range a.Assigns {
			markReads(as.Expr)
			vi := identIndex(p.Prog, as.Name)
			written[vi] = true
			writeSites[vi] = append(writeSites[vi], as.Pos)
		}
	}
	var diags []Diag
	for i, v := range p.Prog.Vars {
		switch {
		case !read[i] && !written[i]:
			diags = append(diags, Diag{
				Pos: v.Pos, Code: CodeUnusedVar, Severity: SevWarning, Confidence: ConfExact,
				Msg: fmt.Sprintf("variable %q is never read or written; it only multiplies the state space by %d", v.Name, v.Card()),
			})
		case written[i] && !read[i]:
			d := Diag{
				Pos: v.Pos, Code: CodeWriteOnlyVar, Severity: SevWarning, Confidence: ConfExact,
				Msg: fmt.Sprintf("variable %q is written but never read; its value cannot influence behavior", v.Name),
			}
			for _, pos := range writeSites[i] {
				d.Related = append(d.Related, Related{Pos: pos, Msg: fmt.Sprintf("%q written here", v.Name)})
			}
			diags = append(diags, d)
		}
	}
	return diags
}

func runStutter(p *Pass) []Diag {
	var diags []Diag
	for i, g := range p.guardStates() {
		if g.dead() {
			continue
		}
		a := &p.Prog.Actions[i]
		identity := true
		for _, as := range a.Assigns {
			if !provablyIdentity(p.Prog, as, g.refined) {
				identity = false
				break
			}
		}
		if identity {
			diags = append(diags, Diag{
				Pos: a.Pos, Code: CodeStutterAction, Severity: SevWarning,
				Msg: fmt.Sprintf("action %q provably stutters: every assignment rewrites the current value (τ self-loop)", a.Name),
			})
		}
	}
	return diags
}

// provablyIdentity reports whether the assignment cannot change its
// target in any state satisfying the (refined) guard: either it is
// the syntactic x := x, or the guard pins the target to a single
// value that the right-hand side always produces.
func provablyIdentity(p *gcl.Program, as gcl.Assign, e env) bool {
	vi := identIndex(p, as.Name)
	if id, isIdent := as.Expr.(*gcl.Ident); isIdent && id.Index == vi {
		return true
	}
	cur := e[vi]
	rhs := evalExpr(p, as.Expr, e)
	return cur.IsSingle() && rhs.IsSingle() && cur.Lo == rhs.Lo
}

func runOverlap(p *Pass) []Diag {
	// The interval tier only proves co-enabledness when both guards are
	// tautologies; the interesting overlaps come from the exact tier.
	var diags []Diag
	states := p.guardStates()
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			if states[i].val == ivTrue && states[j].val == ivTrue {
				ai, aj := &p.Prog.Actions[i], &p.Prog.Actions[j]
				diags = append(diags, Diag{
					Pos: aj.Pos, Code: CodeOverlappingGuards, Severity: SevInfo,
					Msg:     fmt.Sprintf("actions %q and %q are both enabled in every state; the daemon chooses nondeterministically", ai.Name, aj.Name),
					Related: []Related{{Pos: ai.Pos, Msg: fmt.Sprintf("action %q declared here", ai.Name)}},
				})
			}
		}
	}
	return diags
}

func runInit(p *Pass) []Diag {
	if p.Prog.Init == nil {
		return nil
	}
	v := evalExpr(p.Prog, p.Prog.Init, p.Top)
	_, sat := refineByGuard(p.Prog, p.Prog.Init, p.Top)
	if v == ivFalse || v.IsEmpty() || !sat {
		return []Diag{{
			Pos: p.Prog.Init.Position(), Code: CodeInitUnsat, Severity: SevError,
			Msg: "init predicate is unsatisfiable: the program has no initial states, so every from-init property holds vacuously",
		}}
	}
	return nil
}

func runConstCond(p *Pass) []Diag {
	var diags []Diag
	flag := func(pos gcl.Pos, what string, v Interval) {
		if v != ivTrue && v != ivFalse {
			return
		}
		truth := "true"
		if v == ivFalse {
			truth = "false"
		}
		diags = append(diags, Diag{
			Pos: pos, Code: CodeConstCond, Severity: SevInfo,
			Msg: fmt.Sprintf("%s is always %s over the declared domains", what, truth),
		})
	}
	// Comparison subexpressions strictly inside guards and init (a
	// constant *whole* guard is GCL001/GCL002's business).
	scanComparisons := func(root gcl.Expr) {
		walkExpr(root, func(n gcl.Expr) {
			if n == root {
				return
			}
			if b, isBin := n.(*gcl.Binary); isBin {
				switch b.Op {
				case gcl.KindEq, gcl.KindNeq, gcl.KindLt, gcl.KindLe, gcl.KindGt, gcl.KindGe:
					flag(b.Position(), "comparison", evalExpr(p.Prog, b, p.Top))
				}
			}
		})
	}
	// Ternary conditions inside assignment right-hand sides.
	scanConds := func(root gcl.Expr) {
		walkExpr(root, func(n gcl.Expr) {
			if c, isCond := n.(*gcl.Cond); isCond {
				if _, isLit := c.C.(*gcl.BoolLit); !isLit {
					flag(c.C.Position(), "ternary condition", evalExpr(p.Prog, c.C, p.Top))
				}
			}
		})
	}
	for i := range p.Prog.Actions {
		a := &p.Prog.Actions[i]
		scanComparisons(a.Guard)
		for _, as := range a.Assigns {
			scanConds(as.Expr)
		}
	}
	scanComparisons(p.Prog.Init)
	return diags
}
