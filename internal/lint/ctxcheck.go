package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxCheck enforces cancellation discipline in the service-facing
// packages (internal/server, internal/api, internal/exp,
// internal/cluster): a function
// that receives a context.Context must actually honor it. Dropping the
// ctx on the floor doesn't crash anything — it turns every client
// timeout into server work that keeps running, which under the blkd
// admission gate means slots pinned by requests nobody is waiting for.
//
// Two rules, both only inside functions that have a context.Context
// parameter (func literals are scanned as part of their enclosing
// declaration, since they capture the same ctx):
//
//  1. A call to a callee that accepts a context.Context must not feed it
//     context.Background() or context.TODO() — that severs the
//     cancellation chain the caller was handed.
//  2. An unbounded loop (`for { ... }` with no condition and no range
//     clause) must observe the context: a ctx.Err() call or a
//     ctx.Done() receive somewhere in the loop body. Loops whose body
//     performs no calls, or only sync/atomic calls (CAS retry loops),
//     are exempt — they terminate on memory state, not on work.
//
// Soundness limits: the callee of rule 1 must resolve statically, and
// rule 2 cannot prove a conditioned loop (`for cond {}`) terminates —
// such loops are out of scope rather than guessed at.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc:  "require ctx-receiving service functions to propagate ctx (no Background/TODO to ctx-accepting callees) and observe Done/Err in unbounded loops",
	Scope: func(pkgPath string) bool {
		for _, sub := range []string{"internal/server", "internal/api", "internal/exp", "internal/cluster"} {
			if strings.HasSuffix(pkgPath, sub) || strings.Contains(pkgPath, sub+"/") {
				return true
			}
		}
		return false
	},
	Run: runCtxCheck,
}

func runCtxCheck(pass *Pass) {
	for _, fd := range funcDecls(pass.Files) {
		if !funcHasCtxParam(pass, fd.Type) {
			continue
		}
		checkCtxBody(pass, fd.Body)
	}
}

// funcHasCtxParam reports whether ft declares a context.Context param.
func funcHasCtxParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		if isContextType(pass.TypesInfo.TypeOf(fld.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func checkCtxBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCtxArgs(pass, n)
		case *ast.ForStmt:
			if n.Cond == nil {
				checkUnboundedLoop(pass, n)
			}
		}
		return true
	})
}

// checkCtxArgs flags context.Background()/TODO() fed into a callee that
// accepts a context — inside a function that was handed a real one.
func checkCtxArgs(pass *Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		c, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if pkg, name := resolvePkgFunc(pass, sel); pkg == "context" && (name == "Background" || name == "TODO") {
			pass.Reportf(arg.Pos(), "context.%s() passed to a callee while this function received a ctx; pass the caller's ctx (or one derived from it) so cancellation propagates", name)
		}
	}
}

// checkUnboundedLoop flags a `for { ... }` loop that does work (non
// sync/atomic calls) without ever observing ctx.Done() or ctx.Err().
func checkUnboundedLoop(pass *Pass, loop *ast.ForStmt) {
	observes := false
	doesWork := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A literal's loop/work is its own function's concern.
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			if call, ok := n.(*ast.CallExpr); ok {
				if !isAtomicOrBuiltinCall(pass, call) {
					doesWork = true
				}
			}
			return true
		}
		if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextType(pass.TypesInfo.TypeOf(sel.X)) {
			observes = true
		}
		return true
	})
	if doesWork && !observes {
		pass.Reportf(loop.Pos(), "unbounded for-loop performs work without observing the context; check ctx.Err() or select on ctx.Done() each iteration so cancellation can stop it")
	}
}

// isAtomicOrBuiltinCall reports whether call is a builtin (len, append,
// ...) or a sync/atomic operation — the calls a CAS retry loop is
// allowed to spin on.
func isAtomicOrBuiltinCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, builtin := pass.TypesInfo.Uses[fun].(*types.Builtin)
		return builtin
	case *ast.SelectorExpr:
		// Package-level atomic.X(...).
		if pkg, _ := resolvePkgFunc(pass, fun); pkg == "sync/atomic" {
			return true
		}
		// Methods on atomic.Int64 & friends.
		t := pass.TypesInfo.TypeOf(fun.X)
		if t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
					return true
				}
			}
		}
	}
	return false
}
