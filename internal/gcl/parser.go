package gcl

import (
	"fmt"
	"strconv"
)

// Parse lexes and parses src into a Program. The result is not yet
// type-checked; call Check (or use Compile, which does both).
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseProgram()
}

type parser struct {
	toks []Token
	i    int
}

func (p *parser) cur() Token  { return p.toks[p.i] }
func (p *parser) next() Token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(kind TokenKind) (Token, error) {
	if p.cur().Kind != kind {
		return Token{}, &SyntaxError{Pos: p.cur().Pos,
			Msg: fmt.Sprintf("expected %s, found %s", kind, p.cur())}
	}
	return p.next(), nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	seen := make(map[string]bool)
	for p.cur().Kind == KindVar {
		v, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		if seen[v.Name] {
			return nil, &SyntaxError{Pos: v.Pos, Msg: fmt.Sprintf("variable %q redeclared", v.Name)}
		}
		seen[v.Name] = true
		prog.Vars = append(prog.Vars, v)
	}
	if p.cur().Kind == KindInit {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KindSemicolon); err != nil {
			return nil, err
		}
		prog.Init = e
	}
	actionNames := make(map[string]bool)
	for p.cur().Kind == KindAction {
		a, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		if actionNames[a.Name] {
			return nil, &SyntaxError{Pos: a.Pos, Msg: fmt.Sprintf("action %q redeclared", a.Name)}
		}
		actionNames[a.Name] = true
		prog.Actions = append(prog.Actions, a)
	}
	if p.cur().Kind != KindEOF {
		return nil, &SyntaxError{Pos: p.cur().Pos,
			Msg: fmt.Sprintf("expected 'var', 'init', 'action' or end of input, found %s", p.cur())}
	}
	if len(prog.Vars) == 0 {
		return nil, &SyntaxError{Pos: Pos{1, 1}, Msg: "program declares no variables"}
	}
	return prog, nil
}

func (p *parser) parseVarDecl() (VarDecl, error) {
	kw, err := p.expect(KindVar)
	if err != nil {
		return VarDecl{}, err
	}
	name, err := p.expect(KindIdent)
	if err != nil {
		return VarDecl{}, err
	}
	if _, err := p.expect(KindColon); err != nil {
		return VarDecl{}, err
	}
	decl := VarDecl{Name: name.Text, Pos: kw.Pos}
	switch p.cur().Kind {
	case KindBool:
		p.next()
		decl.IsBool = true
	case KindInt, KindMinus:
		lo, err := p.parseSignedInt()
		if err != nil {
			return VarDecl{}, err
		}
		if _, err := p.expect(KindDotDot); err != nil {
			return VarDecl{}, err
		}
		hi, err := p.parseSignedInt()
		if err != nil {
			return VarDecl{}, err
		}
		if hi < lo {
			return VarDecl{}, &SyntaxError{Pos: name.Pos,
				Msg: fmt.Sprintf("empty domain %d..%d for %q", lo, hi, name.Text)}
		}
		decl.Lo, decl.Hi = lo, hi
	default:
		return VarDecl{}, &SyntaxError{Pos: p.cur().Pos,
			Msg: fmt.Sprintf("expected 'bool' or integer range, found %s", p.cur())}
	}
	if _, err := p.expect(KindSemicolon); err != nil {
		return VarDecl{}, err
	}
	return decl, nil
}

func (p *parser) parseSignedInt() (int, error) {
	neg := false
	if p.cur().Kind == KindMinus {
		p.next()
		neg = true
	}
	tok, err := p.expect(KindInt)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(tok.Text)
	if err != nil {
		return 0, &SyntaxError{Pos: tok.Pos, Msg: "integer out of range"}
	}
	if neg {
		n = -n
	}
	return n, nil
}

func (p *parser) parseAction() (ActionDecl, error) {
	kw, err := p.expect(KindAction)
	if err != nil {
		return ActionDecl{}, err
	}
	name, err := p.expect(KindIdent)
	if err != nil {
		return ActionDecl{}, err
	}
	if _, err := p.expect(KindColon); err != nil {
		return ActionDecl{}, err
	}
	guard, err := p.parseExpr()
	if err != nil {
		return ActionDecl{}, err
	}
	if _, err := p.expect(KindArrow); err != nil {
		return ActionDecl{}, err
	}
	act := ActionDecl{Name: name.Text, Guard: guard, Pos: kw.Pos}
	for {
		target, err := p.expect(KindIdent)
		if err != nil {
			return ActionDecl{}, err
		}
		if _, err := p.expect(KindAssign); err != nil {
			return ActionDecl{}, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return ActionDecl{}, err
		}
		if _, err := p.expect(KindSemicolon); err != nil {
			return ActionDecl{}, err
		}
		act.Assigns = append(act.Assigns, Assign{Name: target.Text, Expr: rhs, Pos: target.Pos})
		// Another assignment follows iff the next tokens are "ident :=".
		if p.cur().Kind == KindIdent && p.toks[p.i+1].Kind == KindAssign {
			continue
		}
		return act, nil
	}
}

// Operator precedence, loosest first: || < && < comparisons < additive <
// multiplicative < unary.
func precedence(op TokenKind) int {
	switch op {
	case KindOr:
		return 1
	case KindAnd:
		return 2
	case KindEq, KindNeq, KindLt, KindLe, KindGt, KindGe:
		return 3
	case KindPlus, KindMinus:
		return 4
	case KindStar, KindSlash, KindPercent:
		return 5
	default:
		return 0
	}
}

// parseExpr parses a full expression; the ternary conditional binds
// loosest and associates to the right.
func (p *parser) parseExpr() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != KindQuestion {
		return cond, nil
	}
	tok := p.next()
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KindColon); err != nil {
		return nil, err
	}
	y, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{C: cond, X: x, Y: y, Pos: tok.Pos}, nil
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec := precedence(op)
		if prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs, Pos: opTok.Pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case KindNot:
		tok := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: KindNot, X: x, Pos: tok.Pos}, nil
	case KindMinus:
		tok := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: KindMinus, X: x, Pos: tok.Pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch tok := p.cur(); tok.Kind {
	case KindInt:
		p.next()
		n, err := strconv.Atoi(tok.Text)
		if err != nil {
			return nil, &SyntaxError{Pos: tok.Pos, Msg: "integer out of range"}
		}
		return &IntLit{Value: n, Pos: tok.Pos}, nil
	case KindTrue:
		p.next()
		return &BoolLit{Value: true, Pos: tok.Pos}, nil
	case KindFalse:
		p.next()
		return &BoolLit{Value: false, Pos: tok.Pos}, nil
	case KindIdent:
		p.next()
		return &Ident{Name: tok.Text, Index: -1, Pos: tok.Pos}, nil
	case KindLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KindRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, &SyntaxError{Pos: tok.Pos, Msg: fmt.Sprintf("expected expression, found %s", tok)}
	}
}
