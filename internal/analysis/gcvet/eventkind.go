package gcvet

import (
	"go/ast"
	"go/types"
)

// EventKind keeps the monitor/fleet event vocabulary closed: every
// event kind must be one of the declared Kind* constants from the
// package's event registry, never an inline string literal. The
// golden-pinned streams, the chaos judge, and the loadgen report all
// match on kind strings — a typo in a literal ("recoverd") silently
// creates a kind nothing matches, which the compiler cannot catch but
// a closed constant set can.
//
// Flagged in gated packages, in non-test code:
//
//   - Event{Kind: "..."} composite literals with a raw string kind;
//   - emit("...", ...) calls whose kind argument is a raw literal;
//   - journal Append/AppendAsync calls whose kind argument is a raw
//     literal (the journal's event vocabulary is a registry too — a
//     misspelled kind appends events startup replay never applies);
//   - comparisons of a .Kind field (== / != / switch) against a raw
//     literal.
var EventKind = &Analyzer{
	Name: "eventkind",
	Doc:  "monitor/fleet/journal event kinds must be registry constants, not inline string literals",
	Run:  runEventKind,
}

var eventKindGated = []string{
	"internal/cluster",
	"internal/cluster/chaos",
	"internal/fleet",
	"internal/journal",
	"internal/service",
}

func runEventKind(pass *Pass) {
	gated := false
	for _, s := range eventKindGated {
		if pathHasSuffix(pass.Pkg.Path(), s) {
			gated = true
			break
		}
	}
	if !gated {
		return
	}
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch m := n.(type) {
			case *ast.CompositeLit:
				checkEventLit(pass, m)
			case *ast.CallExpr:
				checkEmitCall(pass, m)
				checkAppendCall(pass, m)
			case *ast.BinaryExpr:
				checkKindCompare(pass, m)
			case *ast.SwitchStmt:
				checkKindSwitch(pass, m)
			}
			return true
		})
	}
}

// isEventType reports whether t is a named Event type from one of the
// gated packages.
func isEventType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil || n.Obj().Name() != "Event" {
		return false
	}
	for _, s := range eventKindGated {
		if pathHasSuffix(n.Obj().Pkg().Path(), s) {
			return true
		}
	}
	return false
}

// isKindSelector reports whether ex selects a field named Kind from an
// Event value.
func isKindSelector(pass *Pass, ex ast.Expr) bool {
	sel, ok := ex.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Kind" {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	return ok && isEventType(tv.Type)
}

// isStringLit reports whether ex is a raw string literal (not a
// declared constant).
func isStringLit(ex ast.Expr) bool {
	lit, ok := ex.(*ast.BasicLit)
	return ok && lit.Kind.String() == "STRING"
}

func checkEventLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || !isEventType(tv.Type) {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" && isStringLit(kv.Value) {
			pass.Reportf(kv.Value.Pos(),
				"inline event kind %s: declare it as a Kind constant in the event registry", exprText(kv.Value))
		}
	}
}

// checkEmitCall flags emit-style calls whose first argument is a raw
// string literal; by convention the kind parameter comes first.
func checkEmitCall(pass *Pass, call *ast.CallExpr) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "emit" && name != "emitEvent" {
		return
	}
	if len(call.Args) > 0 && isStringLit(call.Args[0]) {
		pass.Reportf(call.Args[0].Pos(),
			"inline event kind %s passed to %s: use a Kind constant from the event registry", exprText(call.Args[0]), name)
	}
}

// isJournalType reports whether t is the journal's Journal type.
func isJournalType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil || n.Obj().Name() != "Journal" {
		return false
	}
	return pathHasSuffix(n.Obj().Pkg().Path(), "internal/journal")
}

// checkAppendCall flags journal.Append/AppendAsync calls whose kind
// argument (the first) is a raw string literal.
func checkAppendCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "Append" && name != "AppendAsync" {
		return
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || !isJournalType(tv.Type) {
		return
	}
	if len(call.Args) > 0 && isStringLit(call.Args[0]) {
		pass.Reportf(call.Args[0].Pos(),
			"inline event kind %s passed to %s: use a Kind constant from the journal event registry", exprText(call.Args[0]), name)
	}
}

func checkKindCompare(pass *Pass, bin *ast.BinaryExpr) {
	if op := bin.Op.String(); op != "==" && op != "!=" {
		return
	}
	if isKindSelector(pass, bin.X) && isStringLit(bin.Y) {
		pass.Reportf(bin.Y.Pos(), "comparing .Kind against inline literal %s: use the registry constant", exprText(bin.Y))
	}
	if isKindSelector(pass, bin.Y) && isStringLit(bin.X) {
		pass.Reportf(bin.X.Pos(), "comparing .Kind against inline literal %s: use the registry constant", exprText(bin.X))
	}
}

func checkKindSwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isKindSelector(pass, sw.Tag) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, ex := range cc.List {
			if isStringLit(ex) {
				pass.Reportf(ex.Pos(), "switch on .Kind with inline literal %s: use the registry constant", exprText(ex))
			}
		}
	}
}

// exprText renders a literal for the message.
func exprText(ex ast.Expr) string {
	if lit, ok := ex.(*ast.BasicLit); ok {
		return lit.Value
	}
	return "literal"
}
