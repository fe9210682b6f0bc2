package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ParCheck confines parallelism to an explicit allowlist of packages.
// internal/par is the kernel fan-out substrate: it bounds workers,
// propagates worker panics to the caller, and collapses to a serial loop
// under SetWorkers(1) — the property the determinism tests rely on. A raw
// `go` statement, a hand-rolled sync.WaitGroup, or an ad-hoc channel
// fan-out elsewhere escapes all three guarantees.
var ParCheck = &Analyzer{
	Name:  "parcheck",
	Doc:   "confine go statements, sync.WaitGroup, and channel fan-out to the parallelism allowlist (internal/par, internal/server)",
	Scope: func(pkgPath string) bool { return !parAllowed(pkgPath) },
	Run:   runParCheck,
}

// parAllowlist names the packages (and their subtrees) where goroutine
// primitives are legitimate. Keep it short and justified:
//
//   - internal/par: the worker pool is built FROM these primitives.
//   - internal/server: the blkd service layer's accept loop and
//     graceful drain are event-driven concurrency, not bounded index
//     fan-out — they cannot be expressed through the pool they'd
//     otherwise be confined to.
//   - internal/cache: LRUOf.Do, the module's one singleflight, blocks
//     coalesced callers on the leader's in-flight computation — the
//     same event-driven shape, serving both the server's result cache
//     and internal/memo's segment cache.
//
// Everything else still goes through par; extending this list is a
// review decision, not a //lint:ignore at the call site.
var parAllowlist = []string{
	"internal/par",
	"internal/server",
	"internal/cache",
}

// parAllowed reports whether pkgPath is an allowlisted package or lives
// in an allowlisted subtree.
func parAllowed(pkgPath string) bool {
	for _, allowed := range parAllowlist {
		if strings.HasSuffix(pkgPath, allowed) || strings.Contains(pkgPath, allowed+"/") {
			return true
		}
	}
	return false
}

func runParCheck(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement outside internal/par; use par.ForEach/par.Do so panics propagate and SetWorkers(1) serializes")
			case *ast.SelectorExpr:
				if pkg, name := resolvePkgFunc(pass, n); pkg == "sync" && name == "WaitGroup" {
					pass.Reportf(n.Pos(), "sync.WaitGroup outside internal/par; the par pool already waits, bounds workers, and propagates panics")
				}
			case *ast.CallExpr:
				checkChanMake(pass, n)
			}
			return true
		})
	}
}

// checkChanMake flags make(chan ...): channel fan-out belongs in
// internal/par. Legitimate non-fan-out channels (e.g. a shutdown signal)
// can carry a //lint:ignore parcheck directive.
func checkChanMake(pass *Pass, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return
	}
	t := pass.TypesInfo.TypeOf(call.Args[0])
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		pass.Reportf(call.Pos(), "channel construction outside internal/par; route fan-out through the par pool (//lint:ignore parcheck <reason> for a non-fan-out signal channel)")
	}
}
