package analysis

import (
	"math/bits"
	"strconv"

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
//
// The sweep records, per action, three bitsets over Σ: the states where
// its guard held (enabled), where it moved to the state it left
// (stutter), and where its right-hand side faulted (faulted). The
// per-action counts are their popcounts, and so are the GCL007 counts of
// most pairs: two actions that write disjoint variables reach the same
// successor only when both stutter or both fault, since each changes a
// variable the other leaves alone. Only pairs that share a target are
// compared state by state, on the moves the sweep records for them, and
// only where both are enabled and neither stutters or faults.
func runExact(prog *gcl.Program, gas *mc.Gas) (*exactFacts, error) {
	l, err := gcl.Lower(gas, prog)
	if err != nil {
		return nil, err
	}
	sp := l.Space()
	n := sp.Size()
	numA := len(prog.Actions)
	counts := make([]int, 3*numA)
	f := &exactFacts{
		states:     n,
		space:      sp,
		enabled:    counts[:numA:numA],
		reachEnab:  counts[numA : 2*numA : 2*numA],
		guardError: counts[2*numA:],
		stutters:   make([]bool, numA),
		escapes:    make([]escapeSet, numA),
		overlaps:   make([]overlap, numA*numA),
	}
	numAsg := 0
	for ai := range prog.Actions {
		numAsg += len(prog.Actions[ai].Assigns)
	}
	esc := make([]int, 2*numAsg)
	for ai := range prog.Actions {
		k := len(prog.Actions[ai].Assigns)
		f.escapes[ai] = escapeSet{count: esc[:k:k], witness: esc[numAsg : numAsg+k : numAsg+k]}
		esc = esc[k:]
	}
	// col[ai] is the column of next where an action that shares a target
	// with another records its moves; the others share one more column,
	// written and never read, so that recording takes no branch.
	col, cols := sharedColumns(prog)

	// The bitsets are rows of words uint64s, one per action, followed by
	// the reachable set. Reachability also needs the successor rows,
	// flat: succ[off[s]:off[s+1]]. When two actions share a target, next
	// holds, cols entries a state, the move of each such action in each
	// state where its guard held: at most one entry per state and action,
	// as succ.
	words := (n + 63) / 64
	sets := system.Words((3*numA + 1) * words)
	defer system.PutWords(sets)
	clear(sets)
	enab, stut, fault, reach := sets[:numA*words], sets[numA*words:2*numA*words], sets[2*numA*words:3*numA*words], sets[3*numA*words:]
	var off, succ, queue, next []int
	if prog.Init != nil {
		off, succ, queue = system.Ints(n+1), system.Ints(l.Transitions())[:0], system.Ints(n)[:0]
		defer func() { system.PutInts(off); system.PutInts(succ); system.PutInts(queue) }() // on every return
		off[0] = 0
	}
	if cols > 1 {
		next = system.Ints(cols * n)
		defer system.PutInts(next)
	}

	moves := make([]gcl.Move, 0, numA)
	// nrow is the current state's entries of next, or, without next, a
	// row of one column nothing reads.
	var sink [1]int
	nrow := sink[:]
	c := l.NewCursor()
	for c.Next() {
		if err := gas.Tick(numA); err != nil {
			return nil, err
		}
		s := c.State()
		w, bit := s>>6, uint64(1)<<(s&63)
		if next != nil {
			nrow = next[s*cols : (s+1)*cols]
		}
		if prog.Init != nil {
			if isInit, err := c.Init(); err == nil && isInit {
				f.initCount++
				reach[w] |= bit
				queue = append(queue, s)
			}
		}
		moves = c.Moves(moves[:0])
		for _, m := range moves {
			ai, ns := m.Action, m.Next
			at := ai*words + w
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
				fault[at] |= bit
			} else {
				if ns == s {
					stut[at] |= bit
				}
				if off != nil {
					succ = append(succ, ns)
				}
			}
			enab[at] |= bit
			nrow[col[ai]] = ns
		}
		if off != nil {
			off[s+1] = len(succ)
		}
	}

	for ai := range f.enabled {
		f.enabled[ai] = popcount(enab[ai*words : (ai+1)*words])
		f.stutters[ai] = popcount(stut[ai*words:(ai+1)*words]) == f.enabled[ai]
	}
	// Co-enabled pairs that disagree on the successor state: the daemon's
	// choice is observable. Pairs with identical successors (or no
	// successor) are not recorded — they are not a source of
	// nondeterministic behavior. Word by word, a pair is counted where
	// both are enabled and not both stutter or both fault; a pair that
	// shares a target is then compared state by state where neither
	// stutters or faults.
	for x := 0; x < numA; x++ {
		ex, sx, fx := enab[x*words:(x+1)*words], stut[x*words:(x+1)*words], fault[x*words:(x+1)*words]
		for y := x + 1; y < numA; y++ {
			ey, sy, fy := enab[y*words:(y+1)*words], stut[y*words:(y+1)*words], fault[y*words:(y+1)*words]
			cx, cy := -1, -1
			if next != nil && shared(prog, x, y) {
				cx, cy = col[x], col[y]
			}
			o := &f.overlaps[x*numA+y]
			for w, e := range ex {
				d := e & ey[w] &^ (sx[w]&sy[w] | fx[w]&fy[w])
				if cx >= 0 {
					for b := d &^ (sx[w] | sy[w] | fx[w] | fy[w]); b != 0; b &= b - 1 {
						if s := w<<6 + bits.TrailingZeros64(b); next[s*cols+cx] == next[s*cols+cy] {
							d &^= 1 << (s & 63)
						}
					}
				}
				if d == 0 {
					continue
				}
				if o.count == 0 {
					o.witness = w<<6 + bits.TrailingZeros64(d)
				}
				o.count += bits.OnesCount64(d)
			}
		}
	}

	if prog.Init != nil {
		for len(queue) > 0 {
			s := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, ns := range succ[off[s]:off[s+1]] {
				if err := gas.Tick(1); err != nil {
					return nil, err
				}
				if w, bit := ns>>6, uint64(1)<<(ns&63); reach[w]&bit == 0 {
					reach[w] |= bit
					queue = append(queue, ns)
				}
			}
		}
		for ai := range f.reachEnab {
			e := enab[ai*words : (ai+1)*words]
			for w, r := range reach {
				f.reachEnab[ai] += bits.OnesCount64(e[w] & r)
			}
		}
	}
	return f, nil
}

// sharedColumns numbers the actions that assign a variable another
// action also assigns, 0, 1, …; every other action gets the number after
// the last. It returns the numbers and how many there are.
func sharedColumns(prog *gcl.Program) (col []int, cols int) {
	col = make([]int, len(prog.Actions))
	for x := range col {
		col[x] = -1
		for y := range col {
			if y != x && shared(prog, x, y) {
				col[x] = cols
				cols++
				break
			}
		}
	}
	for x, c := range col {
		if c < 0 {
			col[x] = cols
		}
	}
	return col, cols + 1
}

// shared reports whether actions x and y assign a common variable.
func shared(prog *gcl.Program, x, y int) bool {
	for _, a := range prog.Actions[x].Assigns {
		for _, b := range prog.Actions[y].Assigns {
			if a.Name == b.Name {
				return true
			}
		}
	}
	return false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// exactDiags converts sweep facts into diagnostics, all carrying exact
// confidence, in a slice with room for extra more. Each message is
// appended to one scratch buffer and converted to a string once.
func exactDiags(prog *gcl.Program, f *exactFacts, extra int) []Diag {
	numA := len(prog.Actions)
	hasInit := prog.Init != nil
	size, related := extra, 0
	if hasInit && f.initCount == 0 {
		size++
	}
	for ai := range prog.Actions {
		if f.enabled[ai] == 0 {
			size++
			continue
		}
		size += b2i(f.enabled[ai] == f.states) + b2i(f.stutters[ai]) + b2i(hasInit && f.reachEnab[ai] == 0)
		for _, c := range f.escapes[ai].count {
			related += b2i(c > 0)
		}
	}
	for _, o := range f.overlaps {
		related += b2i(o.count > 0)
	}
	size += related
	diags := make([]Diag, 0, size)
	rel := make([]Related, related)
	note := func(r Related) []Related {
		rel[0] = r
		r1 := rel[:1:1]
		rel = rel[1:]
		return r1
	}
	var scratch [256]byte
	b := scratch[:0]
	n := strconv.AppendInt

	if hasInit && f.initCount == 0 {
		b = append(b, "init predicate is unsatisfiable: none of the "...)
		b = n(b, int64(f.states), 10)
		b = append(b, " states is initial, so every from-init property holds vacuously"...)
		diags = append(diags, Diag{Pos: prog.Init.Position(), Code: CodeInitUnsat, Severity: SevError, Confidence: ConfExact, Msg: string(b)})
	}
	for ai := range prog.Actions {
		a := &prog.Actions[ai]
		switch {
		case f.enabled[ai] == 0:
			b = append(b[:0], "guard of action "...)
			b = strconv.AppendQuote(b, a.Name)
			b = append(b, " holds in none of the "...)
			b = n(b, int64(f.states), 10)
			b = append(b, " states; the action is dead"...)
			diags = append(diags, Diag{Pos: a.Guard.Position(), Code: CodeDeadGuard, Severity: SevWarning, Confidence: ConfExact, Msg: string(b)})
			continue
		case f.enabled[ai] == f.states:
			if _, isLit := a.Guard.(*gcl.BoolLit); !isLit {
				b = append(b[:0], "guard of action "...)
				b = strconv.AppendQuote(b, a.Name)
				b = append(b, " holds in all "...)
				b = n(b, int64(f.states), 10)
				b = append(b, " states; write the literal `true`"...)
				diags = append(diags, Diag{Pos: a.Guard.Position(), Code: CodeTautologyGuard, Severity: SevInfo, Confidence: ConfExact, Msg: string(b)})
			}
		}
		for asi, as := range a.Assigns {
			c := f.escapes[ai].count[asi]
			if c == 0 {
				continue
			}
			b = append(b[:0], "assignment to "...)
			b = strconv.AppendQuote(b, as.Name)
			b = append(b, " leaves its domain "...)
			b = appendDomain(b, prog.Vars[identIndex(prog, as.Name)])
			b = append(b, " in "...)
			b = n(b, int64(c), 10)
			b = append(b, " of "...)
			b = n(b, int64(f.enabled[ai]), 10)
			b = append(b, " enabled states"...)
			msg := string(b)
			b = append(b[:0], "witness state "...)
			b = f.space.AppendState(b, f.escapes[ai].witness[asi])
			diags = append(diags, Diag{Pos: as.Pos, Code: CodeDomainEscape, Severity: SevError, Confidence: ConfExact, Msg: msg,
				Related: note(Related{Pos: as.Pos, Msg: string(b)})})
		}
		if f.stutters[ai] {
			b = append(b[:0], "action "...)
			b = strconv.AppendQuote(b, a.Name)
			b = append(b, " stutters in all "...)
			b = n(b, int64(f.enabled[ai]), 10)
			b = append(b, " states where it is enabled (τ self-loop)"...)
			diags = append(diags, Diag{Pos: a.Pos, Code: CodeStutterAction, Severity: SevWarning, Confidence: ConfExact, Msg: string(b)})
		}
		if hasInit && f.reachEnab[ai] == 0 {
			b = append(b[:0], "action "...)
			b = strconv.AppendQuote(b, a.Name)
			b = append(b, " is enabled in "...)
			b = n(b, int64(f.enabled[ai]), 10)
			b = append(b, " states, none of them reachable from init"...)
			diags = append(diags, Diag{Pos: a.Pos, Code: CodeUnreachableAction, Severity: SevWarning, Confidence: ConfExact, Msg: string(b)})
		}
	}
	// The note under an overlap names the other action; one string per
	// action serves every pair it is the first of.
	declared := make([]string, numA)
	for i := 0; i < numA; i++ {
		ai := &prog.Actions[i]
		for j := i + 1; j < numA; j++ {
			o := f.overlaps[i*numA+j]
			if o.count == 0 {
				continue
			}
			aj := &prog.Actions[j]
			b = append(b[:0], "actions "...)
			b = strconv.AppendQuote(b, ai.Name)
			b = append(b, " and "...)
			b = strconv.AppendQuote(b, aj.Name)
			b = append(b, " are co-enabled with different successors in "...)
			b = n(b, int64(o.count), 10)
			b = append(b, " states (e.g. "...)
			b = f.space.AppendState(b, o.witness)
			b = append(b, "); the daemon's choice is observable"...)
			if declared[i] == "" {
				declared[i] = "action " + strconv.Quote(ai.Name) + " declared here"
			}
			diags = append(diags, Diag{Pos: aj.Pos, Code: CodeOverlappingGuards, Severity: SevInfo, Confidence: ConfExact, Msg: string(b),
				Related: note(Related{Pos: ai.Pos, Msg: declared[i]})})
		}
	}
	return diags
}

// mergeExact reconciles the interval tier's diagnostics with the
// exact tier's, appending to exact. Codes the exact tier decides
// completely (dead guards, tautologies, escapes, stutters, init,
// overlap, reachability) are replaced wholesale by the exact findings;
// interval "may escape" warnings that enumeration did not confirm are
// downgraded to infos rather than silently dropped, preserving the hint
// that the abstract domain lost precision there. Purely syntactic or
// abstract-only findings (unused variables, constant conditions) pass
// through.
func mergeExact(approx, exact []Diag) []Diag {
	var confirmed map[gcl.Pos]bool // where exact has a GCL003, made on first use
	out := exact
	for _, d := range approx {
		if !decidedByExact(d.Code) {
			out = append(out, d)
			continue
		}
		if d.Code != CodeDomainEscape {
			continue
		}
		if confirmed == nil {
			confirmed = make(map[gcl.Pos]bool)
			for _, e := range exact {
				if e.Code == CodeDomainEscape {
					confirmed[e.Pos] = true
				}
			}
		}
		if !confirmed[d.Pos] {
			d.Severity = SevInfo
			d.Confidence = ConfExact
			d.Msg += "; enumeration found no state where the value escapes"
			out = append(out, d)
		}
	}
	return out
}

// decidedByExact reports whether a completed exact tier decides code:
// its findings replace the interval tier's.
func decidedByExact(code Code) bool {
	switch code {
	case CodeDeadGuard, CodeTautologyGuard, CodeDomainEscape, CodeUnreachableAction,
		CodeOverlappingGuards, CodeStutterAction, CodeInitUnsat:
		return true
	}
	return false
}

// replacedByExact reports whether a completed exact tier drops every
// diagnostic analyzer a can emit, so that a need not run. GCL003 is
// decided but not dropped: an unconfirmed interval escape survives,
// downgraded.
func replacedByExact(a *Analyzer) bool {
	for _, code := range a.Codes {
		if !decidedByExact(code) || code == CodeDomainEscape {
			return false
		}
	}
	return len(a.Codes) > 0
}
