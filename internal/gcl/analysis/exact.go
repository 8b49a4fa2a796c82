package analysis

import (
	"fmt"

	"repro/internal/gcl"
	"repro/internal/mc"
	"repro/internal/system"
)

// The exact tier: a full enumeration of the program's state space
// under an mc.Gas budget. Where the interval tier over-approximates,
// enumeration decides — it confirms interval verdicts (upgrading
// their confidence to exact, often with a witness state), downgrades
// "may" warnings that no concrete state realizes, and contributes the
// diagnostics that need real reachability (GCL004) or co-enabledness
// (GCL007). The sweep runs on the same lowered program as
// gcl.CompileProgram (a gcl.Cursor) but tolerates the defects
// compilation rejects: an out-of-domain assignment becomes a
// diagnostic with a witness instead of a fatal error.

// exactFacts aggregates everything one sweep learns.
type exactFacts struct {
	states int
	space  *system.Space

	initCount  int
	enabled    []int       // per action: states where the guard holds
	reachable  []bool      // per state (only when Init != nil)
	reachEnab  []int       // per action: enabled states reachable from init
	stutters   []bool      // per action: identity in every enabled state
	escapes    []escapeSet // per action
	guardError []int       // per action: states where guard evaluation errors
	overlaps   []overlap   // numA×numA, row-major; only i < j is used
}

type escapeSet struct {
	// Indexed by assignment: count and first witness state.
	count   []int
	witness []int
}

type overlap struct {
	count   int
	witness int
}

// runExact enumerates the state space, spending gas per state×action
// and per table entry filled. It returns nil facts when the budget runs
// out: partial sweeps prove nothing.
func runExact(prog *gcl.Program, gas *mc.Gas) (*exactFacts, error) {
	l, err := gcl.Lower(gas, prog)
	if err != nil {
		return nil, err
	}
	sp := l.Space()
	n := sp.Size()
	numA := len(prog.Actions)
	f := &exactFacts{
		states:     n,
		space:      sp,
		enabled:    make([]int, numA),
		reachEnab:  make([]int, numA),
		stutters:   make([]bool, numA),
		escapes:    make([]escapeSet, numA),
		guardError: make([]int, numA),
		overlaps:   make([]overlap, numA*numA),
	}
	for ai := range prog.Actions {
		f.stutters[ai] = true
		f.escapes[ai] = escapeSet{
			count:   make([]int, len(prog.Actions[ai].Assigns)),
			witness: make([]int, len(prog.Actions[ai].Assigns)),
		}
	}

	// Reachability needs the successor rows, flat (succ[off[s]:off[s+1]]),
	// and then, to count reachEnab without a second sweep, per action the
	// states where its guard held: bit s of row ai of enabledAt, words
	// uint64s a row (an eighth of a byte per state and action).
	var off, succ []int
	var enabledAt []uint64
	words := (n + 63) / 64
	if prog.Init != nil {
		off, succ = system.Ints(n+1), system.Ints(l.Transitions())[:0]
		defer func() { system.PutInts(off); system.PutInts(succ) }() // on every return
		off[0] = 0
		enabledAt = make([]uint64, numA*words)
	}
	initStates := make([]int, 0, 16)

	moves := make([]gcl.Move, 0, numA)
	c := l.NewCursor()
	for c.Next() {
		if err := gas.Tick(numA); err != nil {
			return nil, err
		}
		s := c.State()
		if prog.Init != nil {
			isInit, err := c.Init()
			if err == nil && isInit {
				f.initCount++
				initStates = append(initStates, s)
			}
		}
		// Keep, in place, the moves of the actions whose guard held.
		moves = c.Moves(moves[:0])
		enabled := moves[:0]
		for _, m := range moves {
			ai, ns := m.Action, m.Next
			if ns == gcl.Faulted {
				if c.GuardFaulted(ai) {
					f.guardError[ai]++
					continue
				}
				// Right-hand-side errors (division by zero) yield no value
				// and no successor; escaping values are recorded per
				// assignment.
				for asi := range prog.Actions[ai].Assigns {
					if c.Escaped(ai, asi) {
						if f.escapes[ai].count[asi] == 0 {
							f.escapes[ai].witness[asi] = s
						}
						f.escapes[ai].count[asi]++
					}
				}
			} else if off != nil {
				succ = append(succ, ns)
			}
			f.enabled[ai]++
			if enabledAt != nil {
				enabledAt[ai*words+s>>6] |= 1 << (s & 63)
			}
			if ns != s {
				f.stutters[ai] = false
			}
			enabled = append(enabled, m)
		}
		if off != nil {
			off[s+1] = len(succ)
		}
		// Co-enabled pairs that disagree on the successor state: the
		// daemon's choice is observable. Pairs with identical successors
		// (or no successor) are not recorded — they are not a source of
		// nondeterministic behavior.
		for x := range enabled {
			for _, my := range enabled[x+1:] {
				mx := enabled[x]
				if mx.Next == my.Next {
					continue
				}
				o := &f.overlaps[mx.Action*numA+my.Action]
				if o.count == 0 {
					o.witness = s
				}
				o.count++
			}
		}
	}

	if prog.Init != nil {
		f.reachable = make([]bool, n)
		queue := make([]int, 0, len(initStates))
		for _, s := range initStates {
			if !f.reachable[s] {
				f.reachable[s] = true
				queue = append(queue, s)
			}
		}
		// Each reachable state is popped once: count its enabled actions
		// then.
		for len(queue) > 0 {
			s := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			w, bit := s>>6, uint64(1)<<(s&63)
			for ai := range f.reachEnab {
				if enabledAt[ai*words+w]&bit != 0 {
					f.reachEnab[ai]++
				}
			}
			for _, ns := range succ[off[s]:off[s+1]] {
				if err := gas.Tick(1); err != nil {
					return nil, err
				}
				if !f.reachable[ns] {
					f.reachable[ns] = true
					queue = append(queue, ns)
				}
			}
		}
	}
	return f, nil
}

// exactDiags converts sweep facts into diagnostics, all carrying
// exact confidence.
func exactDiags(prog *gcl.Program, f *exactFacts) []Diag {
	var diags []Diag
	state := func(s int) string { return f.space.StateString(s) }

	if prog.Init != nil && f.initCount == 0 {
		diags = append(diags, Diag{
			Pos: prog.Init.Position(), Code: CodeInitUnsat, Severity: SevError, Confidence: ConfExact,
			Msg: fmt.Sprintf("init predicate is unsatisfiable: none of the %d states is initial, so every from-init property holds vacuously", f.states),
		})
	}
	for ai := range prog.Actions {
		a := &prog.Actions[ai]
		switch {
		case f.enabled[ai] == 0:
			diags = append(diags, Diag{
				Pos: a.Guard.Position(), Code: CodeDeadGuard, Severity: SevWarning, Confidence: ConfExact,
				Msg: fmt.Sprintf("guard of action %q holds in none of the %d states; the action is dead", a.Name, f.states),
			})
			continue
		case f.enabled[ai] == f.states:
			if _, isLit := a.Guard.(*gcl.BoolLit); !isLit {
				diags = append(diags, Diag{
					Pos: a.Guard.Position(), Code: CodeTautologyGuard, Severity: SevInfo, Confidence: ConfExact,
					Msg: fmt.Sprintf("guard of action %q holds in all %d states; write the literal `true`", a.Name, f.states),
				})
			}
		}
		for asi, as := range a.Assigns {
			if c := f.escapes[ai].count[asi]; c > 0 {
				w := f.escapes[ai].witness[asi]
				diags = append(diags, Diag{
					Pos: as.Pos, Code: CodeDomainEscape, Severity: SevError, Confidence: ConfExact,
					Msg: fmt.Sprintf("assignment to %q leaves its domain %s in %d of %d enabled states",
						as.Name, domainString(prog.Vars[identIndex(prog, as.Name)]), c, f.enabled[ai]),
					Related: []Related{{Pos: as.Pos, Msg: "witness state " + state(w)}},
				})
			}
		}
		if f.stutters[ai] {
			diags = append(diags, Diag{
				Pos: a.Pos, Code: CodeStutterAction, Severity: SevWarning, Confidence: ConfExact,
				Msg: fmt.Sprintf("action %q stutters in all %d states where it is enabled (τ self-loop)", a.Name, f.enabled[ai]),
			})
		}
		if prog.Init != nil && f.reachEnab[ai] == 0 {
			diags = append(diags, Diag{
				Pos: a.Pos, Code: CodeUnreachableAction, Severity: SevWarning, Confidence: ConfExact,
				Msg: fmt.Sprintf("action %q is enabled in %d states, none of them reachable from init", a.Name, f.enabled[ai]),
			})
		}
	}
	numA := len(prog.Actions)
	for i := 0; i < numA; i++ {
		for j := i + 1; j < numA; j++ {
			o := f.overlaps[i*numA+j]
			if o.count == 0 {
				continue
			}
			ai, aj := &prog.Actions[i], &prog.Actions[j]
			diags = append(diags, Diag{
				Pos: aj.Pos, Code: CodeOverlappingGuards, Severity: SevInfo, Confidence: ConfExact,
				Msg: fmt.Sprintf("actions %q and %q are co-enabled with different successors in %d states (e.g. %s); the daemon's choice is observable",
					ai.Name, aj.Name, o.count, state(o.witness)),
				Related: []Related{{Pos: ai.Pos, Msg: fmt.Sprintf("action %q declared here", ai.Name)}},
			})
		}
	}
	return diags
}

// mergeExact reconciles the interval tier's diagnostics with the
// exact tier's. Codes the exact tier decides completely (dead guards,
// tautologies, escapes, stutters, init, overlap, reachability) are
// replaced wholesale by the exact findings; interval "may escape"
// warnings that enumeration did not confirm are downgraded to infos
// rather than silently dropped, preserving the hint that the abstract
// domain lost precision there. Purely syntactic or abstract-only
// findings (unused variables, constant conditions) pass through.
func mergeExact(approx, exact []Diag) []Diag {
	decided := map[Code]bool{
		CodeDeadGuard: true, CodeTautologyGuard: true, CodeDomainEscape: true,
		CodeUnreachableAction: true, CodeOverlappingGuards: true,
		CodeStutterAction: true, CodeInitUnsat: true,
	}
	confirmed := make(map[string]bool, len(exact))
	for _, d := range exact {
		confirmed[string(d.Code)+"@"+d.Pos.String()] = true
	}
	out := make([]Diag, 0, len(exact)+len(approx))
	out = append(out, exact...)
	for _, d := range approx {
		if !decided[d.Code] {
			out = append(out, d)
			continue
		}
		if d.Code == CodeDomainEscape && !confirmed[string(d.Code)+"@"+d.Pos.String()] {
			d.Severity = SevInfo
			d.Confidence = ConfExact
			d.Msg += "; enumeration found no state where the value escapes"
			out = append(out, d)
		}
	}
	return out
}
