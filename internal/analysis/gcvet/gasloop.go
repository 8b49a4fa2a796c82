package gcvet

import (
	"go/ast"
	"go/types"
)

// GasLoop enforces the metering contract of the model-checking core:
// every state-space sweep a caller can reach through the exported API
// must be boundable by a *mc.Gas budget (or cancellable via context).
// checkd's per-request deadlines and the repair loop's
// candidates-per-second budget both depend on it — an unmetered sweep
// is a request that cannot be cancelled.
//
// The rule: an exported function in internal/mc, internal/core or
// internal/gcl (whose enumeration is the first sweep of every check)
// whose body contains a state-space loop — a for/range statement whose
// subtree touches a type from internal/system or internal/bitset —
// must (a) accept a *mc.Gas or context.Context parameter and (b)
// charge inside the loop: call Tick/Charge/Err on a Gas, consult
// ctx.Done/ctx.Err, or delegate to a function that takes the meter.
// The idiomatic fix is the repo's pair convention: FooGas does the
// metered work, Foo delegates with a nil (unlimited) meter.
var GasLoop = &Analyzer{
	Name: "gasloop",
	Doc:  "exported mc/core/gcl functions with state-space loops must take and charge a *mc.Gas",
	Run:  runGasLoop,
}

var gasLoopGated = []string{
	"internal/mc",
	"internal/core",
	"internal/gcl",
}

func runGasLoop(pass *Pass) {
	gated := false
	for _, s := range gasLoopGated {
		if pathHasSuffix(pass.Pkg.Path(), s) {
			gated = true
			break
		}
	}
	if !gated {
		return
	}
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			loops := stateSpaceLoops(pass, fn.Body)
			if len(loops) == 0 {
				continue
			}
			if !acceptsMeter(pass, fn) {
				pass.Reportf(fn.Name.Pos(),
					"exported %s contains a state-space loop but accepts no *mc.Gas or context.Context", fn.Name.Name)
				continue
			}
			for _, loop := range loops {
				if !chargesInside(pass, loop) {
					pass.Reportf(loop.Pos(),
						"state-space loop in exported %s does not charge gas (call Tick inside the loop or delegate to a metered helper)", fn.Name.Name)
				}
			}
		}
	}
}

// stateSpaceLoops returns the outermost for/range statements in body
// whose subtree references a state-space type (internal/system or
// internal/bitset). Plain index/slice bookkeeping loops don't qualify.
func stateSpaceLoops(pass *Pass, body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if touchesStateSpace(pass, n) {
				loops = append(loops, n.(ast.Stmt))
				return false // outermost is enough; nested loops share its charge
			}
		}
		return true
	})
	return loops
}

// touchesStateSpace reports whether any expression under n has a type
// from the state-space packages.
func touchesStateSpace(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		ex, ok := m.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.Info.Types[ex]; ok && namedFromPkg(tv.Type, "internal/system", "internal/bitset") {
			found = true
			return false
		}
		return true
	})
	return found
}

// acceptsMeter reports whether fn has a *mc.Gas or context.Context
// parameter.
func acceptsMeter(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		if isContext(tv.Type) || isGas(tv.Type) {
			return true
		}
	}
	return false
}

// isGas reports whether t is mc.Gas or *mc.Gas (matched by type name
// and package suffix so testdata fixtures gate identically).
func isGas(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Name() == "Gas" && pathHasSuffix(obj.Pkg().Path(), "internal/mc")
}

// chargesInside reports whether the loop's subtree charges the meter:
// a Tick/Charge/Err call on a Gas value, a ctx.Done/ctx.Err consult,
// or a call that passes the meter (or a context) down to a metered
// helper.
func chargesInside(pass *Pass, loop ast.Stmt) bool {
	charged := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if charged {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			recv, ok := pass.Info.Types[sel.X]
			if ok {
				switch sel.Sel.Name {
				case "Tick", "Charge", "Err":
					if isGas(recv.Type) {
						charged = true
						return false
					}
				case "Done":
					if isContext(recv.Type) {
						charged = true
						return false
					}
				}
				if sel.Sel.Name == "Err" && isContext(recv.Type) {
					charged = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if tv, ok := pass.Info.Types[arg]; ok && (isGas(tv.Type) || isContext(tv.Type)) {
				charged = true
				return false
			}
		}
		return true
	})
	return charged
}
