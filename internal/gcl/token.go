// Package gcl implements the guarded-command language the paper uses to
// specify systems: finite-domain variable declarations, an optional init
// predicate, and a list of actions "guard → assignments". Programs are
// lexed, parsed, type-checked, and compiled into the finite-state automata
// of internal/system, under interleaving (central daemon) semantics.
//
// The concrete syntax, chosen to transliterate the paper's listings
// directly:
//
//	// Dijkstra's 3-state token ring, N = 2 (three processes)
//	var c0 : 0..2;
//	var c1 : 0..2;
//	var c2 : 0..2;
//
//	init c0 == 0 && c1 == 0 && c2 == 1;
//
//	action bottom: c1 == (c0 + 1) % 3 -> c0 := (c1 + 1) % 3;
//	action mid_up: c0 == (c1 + 1) % 3 -> c1 := c0;
//	action mid_dn: c2 == (c1 + 1) % 3 -> c1 := c2;
//	action top:    c1 == c0 && (c1 + 1) % 3 != c2 -> c2 := (c1 + 1) % 3;
//
// Assignments within one action are simultaneous (right-hand sides are
// evaluated in the pre-state), matching guarded-command semantics.
package gcl

import "fmt"

// TokenKind enumerates lexical token kinds.
type TokenKind int

// Token kinds. KindEOF is deliberately not the zero value so an
// uninitialized token is invalid.
const (
	KindInvalid TokenKind = iota
	KindEOF
	KindIdent
	KindInt
	// Keywords.
	KindVar
	KindBool
	KindInit
	KindAction
	KindTrue
	KindFalse
	// Punctuation and operators.
	KindColon     // :
	KindSemicolon // ;
	KindComma     // ,
	KindDotDot    // ..
	KindArrow     // ->
	KindAssign    // :=
	KindLParen    // (
	KindRParen    // )
	KindPlus      // +
	KindMinus     // -
	KindStar      // *
	KindSlash     // /
	KindPercent   // %
	KindEq        // ==
	KindNeq       // !=
	KindLt        // <
	KindLe        // <=
	KindGt        // >
	KindGe        // >=
	KindAnd       // &&
	KindOr        // ||
	KindNot       // !
	KindQuestion  // ? (ternary conditional, as in the paper's if-then-else actions)
)

var kindNames = map[TokenKind]string{
	KindInvalid: "invalid", KindEOF: "end of input", KindIdent: "identifier",
	KindInt: "integer", KindVar: "'var'", KindBool: "'bool'", KindInit: "'init'",
	KindAction: "'action'", KindTrue: "'true'", KindFalse: "'false'",
	KindColon: "':'", KindSemicolon: "';'", KindComma: "','", KindDotDot: "'..'",
	KindArrow: "'->'", KindAssign: "':='", KindLParen: "'('", KindRParen: "')'",
	KindPlus: "'+'", KindMinus: "'-'", KindStar: "'*'", KindSlash: "'/'",
	KindPercent: "'%'", KindEq: "'=='", KindNeq: "'!='", KindLt: "'<'",
	KindLe: "'<='", KindGt: "'>'", KindGe: "'>='", KindAnd: "'&&'",
	KindOr: "'||'", KindNot: "'!'", KindQuestion: "'?'",
}

// String names the kind for diagnostics.
func (k TokenKind) String() string {
	if s, okk := kindNames[k]; okk {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Pos is a 1-based source position.
type Pos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case KindIdent, KindInt:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

var keywords = map[string]TokenKind{
	"var":    KindVar,
	"bool":   KindBool,
	"init":   KindInit,
	"action": KindAction,
	"true":   KindTrue,
	"false":  KindFalse,
}
