package lint

import (
	"go/ast"
	"go/types"
)

// AliasCheck enforces the cache-integrity invariant the delta
// simulation stands on (DESIGN.md §4.11): cached values are aliased,
// never copied, so they must be owned at insertion and immutable after
// every hit. Two rules, both driven by the value-flow layer:
//
//   - Hit side: memory obtained from a cache-hit source (memo.Do, a
//     Get on internal/cache or internal/memo, a Do on internal/cache, a
//     sink column accessor)
//     must never be written through — not directly (element, field,
//     pointer stores; append; copy; in-place sorts) and not by passing
//     it to a module function whose summary says it writes through
//     that parameter. One such write poisons every future hit of the
//     key, a wrong-answer bug no throughput test catches.
//
//   - Insert side: a value handed to a cache Put, or returned by the
//     compute closure of memo.Do or a cache Do, must not alias the
//     enclosing function's receiver or parameters — caller-owned
//     buffers get reused, and the cache would retain a view into them.
//     Defensive-copy idioms (append to nil, slices/maps/bytes.Clone,
//     make+copy, string round-trips) produce owned memory and pass.
//
// Unknown origins never fire: the analyzer trades false negatives for
// a near-zero false-positive rate, like every interprocedural check in
// this package.
var AliasCheck = &Analyzer{
	Name: "aliascheck",
	Doc:  "flag writes to cache-resident memory and cache insertions that alias caller-owned buffers",
	Run:  runAliasCheck,
}

func runAliasCheck(pass *Pass) {
	sums := valueFlowSummaries(pass)
	for _, fn := range funcDecls(pass.Files) {
		checkAliasFunc(pass, sums, fn)
	}
}

func checkAliasFunc(pass *Pass, sums map[*types.Func]valueFact, fn *ast.FuncDecl) {
	fl := newFlowState(pass.TypesInfo, slotObjects(pass.TypesInfo, fn), sums)
	fl.solve(fn.Body)

	// Hit side, direct writes.
	for _, ws := range collectWriteSites(pass.TypesInfo, fn.Body) {
		if o := fl.exprOrigins(ws.base); o.hasHits() {
			pass.Reportf(ws.pos, "%s mutates memory obtained from %s; cached values are shared across hits and immutable by contract — make a defensive copy first", ws.verb, fl.hitDesc(o))
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		// Hit side, through a call: a hit-derived argument in a slot the
		// callee's summary marks as written-through.
		if callee := StaticCallee(pass.TypesInfo, call); callee != nil {
			mut := sums[callee].mutates
		slotLoop:
			for _, slot := range sortedSlots(mut) {
				for _, arg := range argsForSlot(pass.TypesInfo, call, callee, slot) {
					if o := fl.exprOrigins(arg); o.hasHits() {
						pass.Reportf(call.Pos(), "%s writes through its parameter, and this argument aliases memory obtained from %s — pass a defensive copy", viaName(callee, mut[slot]), fl.hitDesc(o))
						break slotLoop
					}
				}
			}
		}

		// Insert side: Put must receive owned memory.
		if isCachePutCall(pass.TypesInfo, call) {
			for _, arg := range call.Args {
				if !aliasable(pass.TypesInfo.TypeOf(arg)) {
					continue
				}
				if o := fl.exprOrigins(arg); o.hasParams() {
					pass.Reportf(call.Pos(), "cache Put retains a value that may alias caller-owned memory (%s); the cache outlives the call — insert a defensive copy", fl.slotDesc(o))
				}
			}
		}

		// Insert side: the results of a memo.Do or cache Do compute
		// closure are retained by the cache.
		if isMemoizedCall(pass.TypesInfo, call) && len(call.Args) > 0 {
			if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
				checkComputeReturns(pass, fl, lit)
			}
		}
		return true
	})
}

// checkComputeReturns flags compute-closure results that alias the
// enclosing function's receiver or parameters. Returns of literals
// nested deeper belong to those literals, not to the compute closure.
func checkComputeReturns(pass *Pass, fl *flowState, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if !aliasable(pass.TypesInfo.TypeOf(res)) {
					continue
				}
				if o := fl.exprOrigins(res); o.hasParams() {
					pass.Reportf(res.Pos(), "memoized compute closure returns memory aliasing %s; the cache retains the value beyond the call — return a defensive copy", fl.slotDesc(o))
				}
			}
		}
		return true
	})
}
