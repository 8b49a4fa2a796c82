package analysis

import (
	"fmt"

	"repro/internal/gcl"
)

// The reachable analyzer: an interval-domain reachability fixpoint.
// Where GCL001 asks "can this guard hold in *any* state of the
// declared domains?", GCL011 asks the sharper question "can it hold in
// any state *reachable from init*?" — answered without enumerating a
// single state. The fixpoint over-approximates the reachable set by a
// box (one interval per variable), so its "unreachable" verdict is
// sound: if the guard cannot hold anywhere inside the box, it cannot
// hold in any concretely reachable state. The exact tier's GCL004 is
// the enumeration-backed counterpart; GCL011 is the tier that still
// works when the state space is too large to sweep.

// reachFixpointCap bounds the fixpoint iterations as a defense against
// a non-monotone abstract step (which the Join-based update rules
// out); each round strictly grows some interval, and intervals are
// bounded by the declared domains, so the bound is never reached in
// practice.
const reachFixpointCap = 1 << 20

// reachEnv computes the box over-approximation of the states reachable
// from init: start from the init-refined top state, then repeatedly
// fire every abstractly enabled action — evaluating all right-hand
// sides simultaneously over the guard-refined pre-state, clamping each
// result to its declared domain (an out-of-domain value produces no
// successor, mirroring the concrete semantics) — and join the
// post-state in, until nothing changes.
func reachEnv(p *Pass) (env, bool) {
	prog := p.Prog
	reach, sat := refineByGuard(prog, prog.Init, p.Top)
	if !sat {
		return nil, false // no initial states: GCL009's business
	}
	// ge and post are each action's guard-refined pre-state and its
	// post-state, rewritten in place for every action.
	scratch := make(env, 2*len(reach))
	ge, post := scratch[:len(reach)], scratch[len(reach):]
	for round := 0; round < reachFixpointCap; round++ {
		changed := false
		for ai := range prog.Actions {
			a := &prog.Actions[ai]
			copy(ge, reach)
			if !refineInto(prog, a.Guard, ge) || !guardMayHold(prog, a.Guard, reach) {
				continue // not enabled anywhere in the current box
			}
			copy(post, ge)
			blocked := false
			for _, as := range a.Assigns {
				vi := identIndex(prog, as.Name)
				rhs := evalExpr(prog, as.Expr, ge).Intersect(p.Top[vi])
				if rhs.IsEmpty() {
					// Evaluation always errors or always escapes the
					// domain: the action yields no successor state.
					blocked = true
					break
				}
				post[vi] = rhs
			}
			if blocked {
				continue
			}
			for vi := range reach {
				joined := reach[vi].Join(post[vi])
				if joined != reach[vi] {
					reach[vi] = joined
					changed = true
				}
			}
		}
		if !changed {
			return reach, true
		}
	}
	return reach, true // unreachable with a monotone step; see reachFixpointCap
}

// guardMayHold reports whether the guard can evaluate to true in some
// state of the box e (abstractly: its value interval contains true).
func guardMayHold(prog *gcl.Program, guard gcl.Expr, e env) bool {
	v := evalExpr(prog, guard, e)
	return v != ivFalse && !v.IsEmpty()
}

// runReachable flags actions whose guard is satisfiable over the
// declared domains (so GCL001 stays silent) but cannot hold anywhere
// in the reachability box — the action is dead for every execution
// that starts in init.
func runReachable(p *Pass) []Diag {
	if p.Prog.Init == nil {
		return nil // no init: every state is a legitimate start
	}
	reach, ok := reachEnv(p)
	if !ok {
		return nil
	}
	var diags []Diag
	ge := make(env, len(reach))
	for i, g := range p.guardStates() {
		if g.dead() {
			continue // GCL001 already covers the action
		}
		a := &p.Prog.Actions[i]
		if copy(ge, reach); refineInto(p.Prog, a.Guard, ge) && guardMayHold(p.Prog, a.Guard, reach) {
			continue
		}
		diags = append(diags, Diag{
			Pos: a.Guard.Position(), Code: CodeUnreachableStatic, Severity: SevWarning,
			Msg: fmt.Sprintf("guard of action %q is satisfiable but holds in no state reachable from init (interval reachability); the action is dead", a.Name),
		})
	}
	return diags
}
