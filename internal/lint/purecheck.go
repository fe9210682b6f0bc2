package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PureCheck proves that memoized compute functions are referentially
// transparent: the cache replays their results, so
// anything the result depends on beyond the canonical key — wall
// clock, the process environment, a global random source, mutable
// package state — silently splits cached from recomputed behavior, and
// any write to caller-visible memory turns a "pure producer" into a
// side effect the cache then elides on every hit.
//
// Roots are the compute closures handed to memo.Do or to a cache Do
// method (and local function literals they call, resolved when bound
// exactly once). Inside a
// root, purecheck flags:
//
//   - calls into time (wall clock, timers), os, and math/rand (minus
//     the seeded constructors determcheck already allows);
//   - reads of package-level vars that are written anywhere in the
//     module outside declarations and init;
//   - writes to any package-level var;
//   - writes through the enclosing function's receiver or parameters
//     (directly, or by passing caller-visible memory to a module
//     function whose summary writes through that slot — unless the
//     argument is partly fresh, a wrapper such as a cursor allocated
//     over that memory, which the summaries exempt too: a wrapper
//     method that writes through the bytes it wraps goes unreported);
//   - calls to module functions that depend on the environment, in
//     their own bodies or through their callees any number of calls
//     down, via once-per-Program impurity summaries.
//
// Calls through function values and interface dispatch are invisible
// to the call graph and therefore unchecked — the same documented
// soundness limit as every interprocedural analyzer here.
var PureCheck = &Analyzer{
	Name: "purecheck",
	Doc:  "memoized compute functions must be pure: no clock/rand/os, no mutable package state, no caller-visible writes",
	Run:  runPureCheck,
}

// impureTimeFuncs are the time-package functions that read the clock
// or arm timers; the rest of the package (Parse, Date, Unix, Duration
// arithmetic) is pure.
var impureTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// seededRandConstructors build explicitly-seeded sources — pure given
// the seed (the same carve-out determcheck's globalRandExceptions
// makes).
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runPureCheck(pass *Pass) {
	sums := valueFlowSummaries(pass)
	impure := impuritySummaries(pass)
	globals := mutableGlobals(pass)

	for _, fn := range funcDecls(pass.Files) {
		var fl *flowState // built lazily: only bodies with a memoized call pay
		var localLits map[types.Object]*ast.FuncLit
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isMemoizedCall(pass.TypesInfo, call) || len(call.Args) == 0 {
				return true
			}
			if fl == nil {
				fl = newFlowState(pass.TypesInfo, slotObjects(pass.TypesInfo, fn), sums)
				fl.solve(fn.Body)
				localLits = singleAssignLits(pass.TypesInfo, fn.Body)
			}
			compute := ast.Unparen(call.Args[len(call.Args)-1])
			pc := &pureChecker{
				pass: pass, fl: fl, sums: sums, impure: impure,
				globals: globals, localLits: localLits,
				visited: make(map[*ast.FuncLit]bool),
			}
			switch x := compute.(type) {
			case *ast.FuncLit:
				pc.checkBody(x)
			case *ast.Ident:
				if obj := objectOf(pass, x); obj != nil && localLits[obj] != nil {
					pc.checkBody(localLits[obj])
				}
			}
			return true
		})
	}
}

// pureChecker walks one memoized root (a compute closure plus the
// local literals it calls) and reports impurities.
type pureChecker struct {
	pass      *Pass
	fl        *flowState
	sums      map[*types.Func]valueFact
	impure    map[*types.Func]impurity
	globals   map[*types.Var]bool
	localLits map[types.Object]*ast.FuncLit
	visited   map[*ast.FuncLit]bool
}

func (pc *pureChecker) checkBody(lit *ast.FuncLit) {
	if pc.visited[lit] {
		return
	}
	pc.visited[lit] = true

	// Direct environment impurities at their own positions.
	for _, im := range scanImpurities(pc.pass.TypesInfo, lit.Body, pc.globals) {
		pc.pass.Reportf(im.pos, "memoized compute function %s; the cache replays results, so they must be pure functions of the canonical key", im.what)
	}

	// Caller-visible writes: the write's base aliases the enclosing
	// function's receiver or parameters.
	for _, ws := range collectWriteSites(pc.pass.TypesInfo, lit.Body) {
		if o := pc.fl.exprOrigins(ws.base); o.hasParams() {
			pc.pass.Reportf(ws.pos, "memoized compute function mutates caller-visible memory (%s) via %s; hits elide the computation, so the side effect is lost on every cached replay", pc.fl.slotDesc(o), ws.verb)
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := StaticCallee(pc.pass.TypesInfo, call)
		if callee == nil {
			// A call through a local once-bound literal extends the root.
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if obj := objectOf(pc.pass, id); obj != nil && pc.localLits[obj] != nil {
					pc.checkBody(pc.localLits[obj])
				}
			}
			return true
		}
		// The callee's environment dependency, at any depth.
		if im, ok := pc.impure[callee]; ok {
			pc.pass.Reportf(call.Pos(), "memoized compute function calls %s, which %s; memoized results must be pure functions of the canonical key", viaName(callee, im.by), im.what)
		}
		// Passing caller-visible memory into a slot the callee writes;
		// a partly fresh argument is exempt, as in the summaries.
		for _, slot := range sortedSlots(pc.sums[callee].mutates) {
			for _, arg := range argsForSlot(pc.pass.TypesInfo, call, callee, slot) {
				if o := pc.fl.exprOrigins(arg); o.hasParams() && !o.fresh {
					pc.pass.Reportf(call.Pos(), "memoized compute function passes caller-visible memory (%s) to %s, which writes through it; the side effect is lost on every cached replay", pc.fl.slotDesc(o), viaName(callee, pc.sums[callee].mutates[slot]))
				}
			}
		}
		return true
	})
}

// impurity is one environment dependency: where a body has it, what it
// is, and (in a summary) the function whose own body has it.
type impurity struct {
	pos  token.Pos
	what string
	by   *types.Func
}

// impuritySummaries records each module function's environment
// dependency: the first direct impurity in its body (clock/rand/os
// calls, mutable-global reads, global writes) or, failing that, that of
// the first function it calls that has one.
func impuritySummaries(pass *Pass) map[*types.Func]impurity {
	globals := mutableGlobals(pass)
	return summarize(pass, "purecheck.summaries", func(n *CallNode, facts map[*types.Func]impurity) (impurity, bool) {
		if ims := scanImpurities(n.Pkg.Info, n.Decl.Body, globals); len(ims) > 0 {
			im := ims[0]
			im.by = n.Fn
			return im, true
		}
		for _, site := range n.Callees {
			if im, ok := facts[site.Callee.Fn]; ok {
				return im, true
			}
		}
		return impurity{}, false
	}, equalFacts[impurity])
}

// scanImpurities finds the direct environment impurities in one body:
// impure stdlib calls and package-level variable traffic. Nested func
// literals are included — their execution is attributed to the
// enclosing function, matching the call-graph convention.
func scanImpurities(info *types.Info, body *ast.BlockStmt, globals map[*types.Var]bool) []impurity {
	var out []impurity
	written := make(map[*ast.Ident]bool)

	// Global writes first, so the read scan below can skip those idents.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if id := globalWriteIdent(info, lhs); id != nil {
					written[id] = true
					out = append(out, impurity{pos: lhs.Pos(), what: "writes package-level var " + id.Name})
				}
			}
		case *ast.IncDecStmt:
			if id := globalWriteIdent(info, st.X); id != nil {
				written[id] = true
				out = append(out, impurity{pos: st.X.Pos(), what: "writes package-level var " + id.Name})
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if what := impureStdlibCall(info, x); what != "" {
				out = append(out, impurity{pos: x.Pos(), what: what})
			}
		case *ast.Ident:
			if written[x] {
				return true
			}
			v, ok := info.Uses[x].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return true
			}
			if globals[v] {
				out = append(out, impurity{pos: x.Pos(), what: "reads package-level var " + x.Name + ", which is written elsewhere in the module"})
			}
		}
		return true
	})
	return out
}

// globalWriteIdent resolves an assignment target to the package-level
// variable it writes (directly, or through its memory via
// element/field/pointer stores), or nil.
func globalWriteIdent(info *types.Info, lhs ast.Expr) *ast.Ident {
	e := ast.Unparen(lhs)
	if base, _ := writeBase(info, e); base != nil {
		e = ast.Unparen(base)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return id
	}
	return nil
}

// impureStdlibCall classifies a call into the clock/rand/os families;
// type conversions (time.Duration(x)) resolve to type names, not
// *types.Func, and fall through clean.
func impureStdlibCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return ""
	}
	name := f.Name()
	switch f.Pkg().Path() {
	case "time":
		if impureTimeFuncs[name] {
			return "calls time." + name + " (wall clock / timers)"
		}
	case "os":
		return "calls os." + name + " (process environment)"
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[name] {
			return "calls " + f.Pkg().Path() + "." + name + " (global random source)"
		}
	}
	return ""
}

// mutableGlobals records, once per Program, every package-level var the
// module writes outside declarations and init — directly, through its
// memory, or by taking its address (which lets stdlib like flag write
// it).
func mutableGlobals(pass *Pass) map[*types.Var]bool {
	return pass.Prog.Cache("valueflow.mutableglobals", func() any {
		out := make(map[*types.Var]bool)
		mark := func(info *types.Info, e ast.Expr) {
			if base, _ := writeBase(info, e); base != nil {
				e = base
			}
			id, ok := ast.Unparen(e).(*ast.Ident)
			if !ok {
				return
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				out[v] = true
			}
		}
		for _, pkg := range pass.Prog.Pkgs {
			for _, fd := range funcDecls(pkg.Files) {
				if fd.Name.Name == "init" && fd.Recv == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						if st.Tok == token.DEFINE {
							return true
						}
						for _, lhs := range st.Lhs {
							mark(pkg.Info, lhs)
						}
					case *ast.IncDecStmt:
						mark(pkg.Info, st.X)
					case *ast.UnaryExpr:
						if st.Op == token.AND {
							mark(pkg.Info, st.X)
						}
					}
					return true
				})
			}
		}
		return out
	}).(map[*types.Var]bool)
}

// singleAssignLits maps local variables bound exactly once to a func
// literal (`run := func(...) ...`) to that literal, so a compute
// closure calling a named local helper stays inside the root.
func singleAssignLits(info *types.Info, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	lits := make(map[types.Object]*ast.FuncLit)
	assigns := make(map[types.Object]int)
	note := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		assigns[obj]++
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			lits[obj] = lit
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				note(id, st.Rhs[i])
			}
		}
		return true
	})
	for obj, n := range assigns {
		if n != 1 {
			delete(lits, obj)
		}
	}
	return lits
}
