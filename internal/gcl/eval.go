package gcl

import (
	"fmt"

	"repro/internal/system"
)

// EvalError reports a runtime evaluation failure (division by zero, or an
// assignment leaving a variable's domain) together with the state in which
// it occurred.
type EvalError struct {
	Pos   Pos
	Msg   string
	State string
}

// Error implements error.
func (e *EvalError) Error() string {
	if e.State != "" {
		return fmt.Sprintf("%s: %s (in state %s)", e.Pos, e.Msg, e.State)
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// Eval evaluates a checked expression in the environment env, which holds
// each variable's 0-based encoded value (booleans as 0/1; range variables
// offset by their lower bound). Integer results are returned in source
// units (i.e. with range offsets applied); boolean results as 0/1.
func Eval(p *Program, e Expr, env system.Vals) (int, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Value, nil
	case *BoolLit:
		if e.Value {
			return 1, nil
		}
		return 0, nil
	case *Ident:
		v := &p.Vars[e.Index]
		if v.IsBool {
			return env[e.Index], nil
		}
		return env[e.Index] + v.Lo, nil
	case *Unary:
		x, err := Eval(p, e.X, env)
		if err != nil {
			return 0, err
		}
		if e.Op == KindNot {
			return 1 - x, nil
		}
		return -x, nil
	case *Cond:
		c, err := Eval(p, e.C, env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return Eval(p, e.X, env)
		}
		return Eval(p, e.Y, env)
	case *Binary:
		x, err := Eval(p, e.X, env)
		if err != nil {
			return 0, err
		}
		// Short-circuit logic.
		switch e.Op {
		case KindAnd:
			if x == 0 {
				return 0, nil
			}
			return Eval(p, e.Y, env)
		case KindOr:
			if x != 0 {
				return 1, nil
			}
			return Eval(p, e.Y, env)
		}
		y, err := Eval(p, e.Y, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case KindPlus:
			return x + y, nil
		case KindMinus:
			return x - y, nil
		case KindStar:
			return x * y, nil
		case KindSlash:
			if y == 0 {
				return 0, &EvalError{Pos: e.Pos, Msg: "division by zero"}
			}
			return floorDiv(x, y), nil
		case KindPercent:
			if y == 0 {
				return 0, &EvalError{Pos: e.Pos, Msg: "modulo by zero"}
			}
			return floorMod(x, y), nil
		case KindEq:
			return b2i(x == y), nil
		case KindNeq:
			return b2i(x != y), nil
		case KindLt:
			return b2i(x < y), nil
		case KindLe:
			return b2i(x <= y), nil
		case KindGt:
			return b2i(x > y), nil
		case KindGe:
			return b2i(x >= y), nil
		}
		return 0, &EvalError{Pos: e.Pos, Msg: fmt.Sprintf("unknown operator %s", e.Op)}
	default:
		return 0, &EvalError{Pos: e.Position(), Msg: "unknown expression node"}
	}
}

// EvalBool evaluates a boolean expression.
func EvalBool(p *Program, e Expr, env system.Vals) (bool, error) {
	v, err := Eval(p, e, env)
	return v != 0, err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// floorDiv and floorMod implement mathematical (floored) division so the
// ⊕/⊖ modulo-K arithmetic of the paper behaves correctly on negative
// intermediates: (-1) % 3 == 2.
func floorDiv(x, y int) int {
	q := x / y
	if (x%y != 0) && ((x < 0) != (y < 0)) {
		q--
	}
	return q
}

func floorMod(x, y int) int {
	m := x % y
	if m != 0 && ((x < 0) != (y < 0)) {
		m += y
	}
	return m
}
