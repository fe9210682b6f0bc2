package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// DetFlow generalizes determcheck across function boundaries: it tracks
// map-iteration order as a taint. A slice appended to (or a string
// concatenated) inside `range` over a map carries the randomized
// iteration order; determcheck already catches float accumulation
// directly inside such a loop, but the order survives being returned
// from a helper, and the damage happens later — a float reduction over
// the mis-ordered slice, or the slice escaping into wire-visible output
// (JSON, formatted writers) where two runs of the same scenario produce
// different bytes.
//
// Sources: `xs = append(xs, ...)` / `s += ...` inside a map range, and
// the results of module functions summarized as returning map-ordered
// data, however many helpers forward it. Cleansing: a sort.* /
// slices.Sort* call on the value. Sinks, where findings are
// reported: float accumulation over a range of the tainted slice, and
// tainted values passed to json.Marshal/MarshalIndent, an
// (*json.Encoder).Encode, or fmt.Fprint*.
//
// Soundness limits: taint is tracked per local variable (not through
// struct fields or slices of slices), and cleansing is flow-insensitive
// within a function — a sort anywhere clears the variable, on the
// theory that sorting the wrong copy is a bug shape we have never seen.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "track map-iteration order through the call graph into float accumulators and wire-visible output",
	Scope: func(pkgPath string) bool {
		return isInternal(pkgPath)
	},
	Run: runDetFlow,
}

func runDetFlow(pass *Pass) {
	summaries := detflowSummaries(pass)
	for _, fd := range funcDecls(pass.Files) {
		tainted := taintedLocals(pass, fd.Body, summaries)
		if len(tainted) == 0 {
			continue
		}
		reportTaintSinks(pass, fd.Body, tainted)
	}
}

// taintedLocals computes the map-order-tainted variables of one body:
// seeded by map-range accumulation and by calls to summarized helpers,
// then cleansed by sorts.
func taintedLocals(pass *Pass, body *ast.BlockStmt, summaries map[*types.Func]bool) map[types.Object]bool {
	tainted := make(map[types.Object]bool)

	// Seed A: order-dependent accumulation inside a range over a map.
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := objectOf(pass, id)
			if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
				return true // declared inside the loop: restarts per iteration
			}
			switch {
			case isAppendTo(pass, as, id):
				tainted[obj] = true
			case as.Tok.String() == "+=" && isStringType(pass.TypesInfo.TypeOf(as.Lhs[0])):
				tainted[obj] = true
			}
			return true
		})
		return true
	})

	// Seed B: results of helpers summarized as returning map-ordered
	// data — the interprocedural hop.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := StaticCallee(pass.TypesInfo, call)
		if callee == nil || !summaries[callee] {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				if obj := objectOf(pass, id); obj != nil {
					tainted[obj] = true
				}
			}
		}
		return true
	})

	if len(tainted) == 0 {
		return tainted
	}

	// Cleanse: a sort on the variable restores a canonical order.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, _ := resolvePkgFunc(pass, sel)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := objectOf(pass, id); obj != nil {
					delete(tainted, obj)
				}
			}
		}
		return true
	})
	return tainted
}

// reportTaintSinks flags the places where a tainted value becomes a
// wrong number or wire-visible bytes.
func reportTaintSinks(pass *Pass, body *ast.BlockStmt, tainted map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Float accumulation over a slice built in map order.
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok {
				return true
			}
			obj := objectOf(pass, id)
			if obj == nil || !tainted[obj] {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if ok && isFloatAccum(pass, n, as) {
					pass.Reportf(as.Pos(), "float accumulation over %s, which was built in map-iteration order; sort %s (or the map keys) first so the sum is reproducible", id.Name, id.Name)
				}
				return true
			})
		case *ast.CallExpr:
			sink := wireSink(pass, n)
			if sink == "" {
				return true
			}
			for _, arg := range n.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := objectOf(pass, id); obj != nil && tainted[obj] {
						pass.Reportf(arg.Pos(), "%s is in map-iteration order and reaches %s; wire-visible output must be deterministic — sort before emitting", id.Name, sink)
						return false
					}
					return true
				})
			}
		}
		return true
	})
}

// wireSink classifies calls whose arguments become externally visible
// bytes.
func wireSink(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, name := resolvePkgFunc(pass, sel); pkg != "" {
		if pkg == "encoding/json" && (name == "Marshal" || name == "MarshalIndent") {
			return "json." + name
		}
		if pkg == "fmt" && (name == "Fprintf" || name == "Fprint" || name == "Fprintln") {
			return "fmt." + name
		}
		return ""
	}
	// (*json.Encoder).Encode.
	if sel.Sel.Name == "Encode" {
		t := pass.TypesInfo.TypeOf(sel.X)
		if t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" && obj.Name() == "Encoder" {
					return "json.Encoder.Encode"
				}
			}
		}
	}
	return ""
}

// isAppendTo reports whether as is `id = append(id, ...)`.
func isAppendTo(pass *Pass, as *ast.AssignStmt, id *ast.Ident) bool {
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, builtin := pass.TypesInfo.Uses[fun].(*types.Builtin); !builtin {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && first.Name == id.Name
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// objectOf resolves an identifier to its object (use or def).
func objectOf(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// detflowSummaries marks the module functions that return map-ordered
// data: a function that returns one of its tainted locals, or returns
// the result of a call to a marked function.
func detflowSummaries(pass *Pass) map[*types.Func]bool {
	return summarize(pass, "detflow.returns", func(n *CallNode, facts map[*types.Func]bool) (bool, bool) {
		p := &Pass{TypesInfo: n.Pkg.Info}
		tainted := taintedLocals(p, n.Decl.Body, facts)
		if len(tainted) == 0 && !slices.ContainsFunc(n.Callees, func(s *CallSite) bool { return facts[s.Callee.Fn] }) {
			return false, false
		}
		returns := false
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			ret, ok := m.(*ast.ReturnStmt)
			if !ok {
				return !returns
			}
			for _, res := range ret.Results {
				switch r := ast.Unparen(res).(type) {
				case *ast.Ident:
					obj := objectOf(p, r)
					returns = returns || obj != nil && tainted[obj]
				case *ast.CallExpr:
					callee := StaticCallee(p.TypesInfo, r)
					returns = returns || callee != nil && facts[callee]
				}
			}
			return !returns
		})
		return returns, returns
	}, equalFacts[bool])
}
