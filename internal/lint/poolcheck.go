package lint

import (
	"go/ast"
	"go/types"
)

// PoolCheck pairs sync.Pool.Get with Put. A Get whose buffer neither
// returns to the pool nor transfers to the caller silently degrades the
// pool to an allocator — the steady-state reuse the hot kernels depend on
// (codec plans, display scratch) disappears without any test failing.
//
// The analysis is per function: a Get is accepted when the same function
// (a) calls Put on the same pool (directly or deferred), or (b) hands the
// fetched value to its caller through a return statement — the wrapper
// idiom GetBuf/PutBuf uses, where the Put lives in the sibling function.
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "flag sync.Pool.Get without a matching Put or ownership-transferring return in the same function",
	Run:  runPoolCheck,
}

func runPoolCheck(pass *Pass) {
	for _, fn := range funcDecls(pass.Files) {
		checkPoolFunc(pass, fn)
	}
}

// poolGet is one sync.Pool.Get call site within a function.
type poolGet struct {
	call *ast.CallExpr
	recv string // receiver expression text, e.g. "planPool"
}

func checkPoolFunc(pass *Pass, fn *ast.FuncDecl) {
	var gets []poolGet
	puts := make(map[string]bool) // receiver text -> Put seen
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := poolMethod(pass, call)
		switch method {
		case "Get":
			gets = append(gets, poolGet{call: call, recv: recv})
		case "Put":
			puts[recv] = true
		}
		return true
	})
	if len(gets) == 0 {
		return
	}
	for _, g := range gets {
		if puts[g.recv] {
			continue
		}
		if getEscapesViaReturn(fn, g.call) {
			continue
		}
		pass.Reportf(g.call.Pos(), "sync.Pool Get on %s without a Put (or defer Put) in %s and the value is not returned to the caller; the pooled buffer leaks and reuse stops", g.recv, fn.Name.Name)
	}
}

// poolMethod reports (receiverText, methodName) when call is a Get/Put
// method call on a sync.Pool (or *sync.Pool) receiver.
func poolMethod(pass *Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if name != "Get" && name != "Put" {
		return "", ""
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil || !isSyncPool(t) {
		return "", ""
	}
	return types.ExprString(sel.X), name
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// getEscapesViaReturn reports whether the Get result reaches a return
// statement: either the call sits inside a return expression, or a chain
// of assignments starting at the Get's destination feeds an identifier a
// return mentions. This keeps the GetBuf wrapper idiom (Get, type-assert,
// return) clean while still catching a Get whose value dies in place.
func getEscapesViaReturn(fn *ast.FuncDecl, get *ast.CallExpr) bool {
	// Direct: return expression contains the Get call.
	direct := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if containsNode(res, get) {
				direct = true
			}
		}
		return true
	})
	if direct {
		return true
	}

	// Indirect: fixpoint over assignments. Seed with the identifiers the
	// Get call is assigned to, then follow v := tracked / v = tracked.
	tracked := make(map[string]bool)
	seedFromAssignments(fn, get, tracked)
	if len(tracked) == 0 {
		return false
	}
	for {
		grew := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			rhsTracked := false
			for _, r := range as.Rhs {
				if mentionsTracked(r, tracked) {
					rhsTracked = true
				}
			}
			if !rhsTracked {
				return true
			}
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name != "_" && !tracked[id.Name] {
					tracked[id.Name] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	escapes := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if mentionsTracked(res, tracked) {
				escapes = true
			}
		}
		return true
	})
	return escapes
}

// seedFromAssignments adds the LHS identifiers of the statement that
// assigns the Get call's result.
func seedFromAssignments(fn *ast.FuncDecl, get *ast.CallExpr, tracked map[string]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, r := range as.Rhs {
			if containsNode(r, get) {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
						tracked[id.Name] = true
					}
				}
			}
		}
		return true
	})
}

// containsNode reports whether target appears within root.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
			return false
		}
		return !found
	})
	return found
}

// mentionsTracked reports whether expr references a tracked identifier.
func mentionsTracked(expr ast.Expr, tracked map[string]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && tracked[id.Name] {
			found = true
			return false
		}
		return !found
	})
	return found
}
