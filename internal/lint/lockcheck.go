package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck forbids blocking while holding a sync.Mutex or sync.RWMutex.
// A channel operation, a network/HTTP call, a time.Sleep, a
// sync.WaitGroup.Wait, or a par.Gate.Acquire under a held lock turns
// every other goroutine contending for that lock into a hostage of the
// slowest peer — the classic service-layer stall that -race never sees
// because it is a liveness bug, not a data race.
//
// The analysis is a forward dataflow on the CFG tracking the set of
// mutexes definitely held (join = intersection, so conditional locking
// never over-reports). defer mu.Unlock() does NOT end the critical
// section — the lock stays held to function exit, which is the point of
// the idiom and of the check. Calling a module function that can block
// — its own body blocks, or it calls one that does, any number of calls
// down — is flagged too.
//
// Soundness limits: receivers are matched textually (mu in a helper is
// not this mu), dynamic calls are invisible, and operations inside a
// select with a default clause are non-blocking by construction and
// exempt.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "forbid channel ops, net/http calls, Gate.Acquire, and other blocking calls while a sync.Mutex/RWMutex is held",
	Run:  runLockCheck,
}

// lockFact is the set of definitely-held mutexes: mutex key → Lock call
// position.
type lockFact map[string]token.Pos

func lockFactEqual(a, b any) bool {
	x, y := a.(lockFact), b.(lockFact)
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if w, ok := y[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// lockFactJoin intersects: only mutexes held on every inbound path
// count, so `if c { mu.Lock() }` merges to unheld.
func lockFactJoin(a, b any) any {
	x, y := a.(lockFact), b.(lockFact)
	out := lockFact{}
	for k, v := range x {
		if _, ok := y[k]; ok {
			out[k] = v
		}
	}
	return out
}

func runLockCheck(pass *Pass) {
	summaries := blockingSummaries(pass)
	for _, fd := range funcDecls(pass.Files) {
		forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
			checkLockBody(pass, body, summaries)
		})
	}
}

func checkLockBody(pass *Pass, body *ast.BlockStmt, summaries map[*types.Func]blockFact) {
	if !bodyMentionsMutex(pass, body) {
		return
	}
	nonBlocking := nonBlockingComms(body)
	caps := chanMakeCaps(pass, body)
	reported := make(map[token.Pos]bool)
	forEachHeld(pass, body, types.ExprString, func(n ast.Node, held lockFact) {
		reportBlockingOps(pass, n, held, summaries, nonBlocking, caps, reported)
	})
}

// forEachHeld is the held-set dataflow lockcheck and lockorder share: a
// forward pass over body's CFG tracking the mutexes definitely held
// (join = intersection), each named by key. It replays every reachable
// block and calls visit with each node reached while a mutex is held,
// and the set held just before it.
func forEachHeld(pass *Pass, body *ast.BlockStmt, key func(ast.Expr) string, visit func(n ast.Node, held lockFact)) {
	cfg := pass.Prog.CFG(body)
	transfer := func(fact any, n ast.Node) any {
		f := fact.(lockFact)
		k, method, ok := mutexOp(pass, n, key)
		if !ok {
			return f
		}
		out := make(lockFact, len(f))
		for k, v := range f {
			out[k] = v
		}
		switch method {
		case "Lock", "RLock":
			out[k] = n.Pos()
		case "Unlock", "RUnlock":
			delete(out, k)
		}
		return out
	}
	in := cfg.Forward(FlowAnalysis{
		Entry:    func() any { return lockFact{} },
		Transfer: transfer,
		Join:     lockFactJoin,
		Equal:    lockFactEqual,
	})
	for _, blk := range cfg.Blocks {
		fact, ok := in[blk]
		if !ok {
			continue
		}
		f := fact.(lockFact)
		for _, n := range blk.Nodes {
			if len(f) > 0 {
				visit(n, f)
			}
			f = transfer(f, n).(lockFact)
		}
	}
}

// mutexOp returns (key(receiver), method, true) when n is a statement-
// level Lock/RLock/Unlock/RUnlock call on a sync.Mutex or sync.RWMutex.
// defer mu.Unlock() is not one: it keeps the section open to exit.
func mutexOp(pass *Pass, n ast.Node, key func(ast.Expr) string) (string, string, bool) {
	stmt, ok := n.(*ast.ExprStmt)
	if !ok {
		return "", "", false
	}
	call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !isSyncMutex(pass.TypesInfo.TypeOf(sel.X)) {
		return "", "", false
	}
	return key(sel.X), sel.Sel.Name, true
}

// isSyncMutex reports whether t is sync.Mutex/RWMutex (or a pointer).
func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// nonBlockingComms marks the comm statements of every select that has a
// default clause — those sends/receives cannot block.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc := c.(*ast.CommClause); cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					out[cc.Comm] = true
					// Receives appear as expression or assignment comms.
					ast.Inspect(cc.Comm, func(m ast.Node) bool {
						out[m] = true
						return true
					})
				}
			}
		}
		return true
	})
	return out
}

// reportBlockingOps scans one CFG node for operations that can block,
// reporting each against the currently held mutexes.
func reportBlockingOps(pass *Pass, n ast.Node, held lockFact, summaries map[*types.Func]blockFact, nonBlocking map[ast.Node]bool, caps map[types.Object]int64, reported map[token.Pos]bool) {
	report := func(pos token.Pos, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		keys := make([]string, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pass.Reportf(pos, "%s while holding %s; release the lock first — a blocked holder stalls every goroutine contending for it", what, strings.Join(keys, ", "))
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // a literal's ops run when it runs, not here
		}
		if nonBlocking[m] {
			return true
		}
		switch m := m.(type) {
		case *ast.SendStmt:
			// A provably-unbuffered send is a rendezvous: it blocks until
			// a receiver arrives, the worst case of the rule (chancheck's
			// unbuffered-send-under-lock discipline lands here).
			what := "channel send"
			if obj := chanObj(pass, m.Chan); obj != nil {
				if c, known := caps[obj]; known && c == 0 {
					what = "unbuffered channel send"
				}
			}
			report(m.Pos(), what)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				report(m.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(m.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if what := blockingOp(pass, m); what != "" {
				report(m.Pos(), what)
			} else if callee := StaticCallee(pass.TypesInfo, m); callee != nil {
				if f, ok := summaries[callee]; ok {
					report(m.Pos(), "call to "+viaName(callee, f.by)+" (its body "+f.what+")")
				}
			}
		}
		return true
	})
}

// blockingOp classifies a call that blocks by itself: Gate.Acquire,
// time.Sleep, WaitGroup.Wait, anything from net or net/http. A module
// function that blocks is blockingSummaries' business. Re-acquiring a
// held mutex is lockorder's one-node cycle.
func blockingOp(pass *Pass, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if gate, method := gateMethod(pass, sel); gate != "" && method == "Acquire" {
			return "Gate.Acquire (blocks for an admission slot)"
		}
		if pkg, name := resolvePkgFunc(pass, sel); pkg != "" {
			if pkg == "time" && name == "Sleep" {
				return "time.Sleep"
			}
			if pkg == "net" || pkg == "net/http" || strings.HasPrefix(pkg, "net/") {
				return pkg + "." + name + " (network I/O)"
			}
		}
		// Methods on net/http types (http.Client.Do, net.Conn.Read, ...).
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				path := named.Obj().Pkg().Path()
				if path == "net" || path == "net/http" || strings.HasPrefix(path, "net/") {
					return path + " method call (network I/O)"
				}
				if path == "sync" && named.Obj().Name() == "WaitGroup" && sel.Sel.Name == "Wait" {
					return "sync.WaitGroup.Wait"
				}
			}
		}
	}
	return ""
}

// blockFact is lockcheck's summary of a function that can block: what
// blocks, and the function whose own body does it.
type blockFact struct {
	what string
	by   *types.Func
}

// blockingSummaries records which module functions can block: the first
// blocking operation in a body or, failing that, the first call to a
// function that can. Calls inside func literals and the comms of a
// select with a default clause do not count.
func blockingSummaries(pass *Pass) map[*types.Func]blockFact {
	return summarize(pass, "lockcheck.blocking", func(n *CallNode, facts map[*types.Func]blockFact) (blockFact, bool) {
		p := &Pass{TypesInfo: n.Pkg.Info}
		nonBlocking := nonBlockingComms(n.Decl.Body)
		what := ""
		var lits []*ast.FuncLit
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				lits = append(lits, lit)
				return false
			}
			if what != "" {
				return false
			}
			if nonBlocking[m] {
				return true
			}
			switch m := m.(type) {
			case *ast.SendStmt:
				what = "sends on a channel"
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					what = "receives from a channel"
				}
			case *ast.CallExpr:
				if w := blockingOp(p, m); w != "" {
					what = "calls " + w
				}
			}
			return what == ""
		})
		if what != "" {
			return blockFact{what, n.Fn}, true
		}
		for _, site := range n.Callees {
			if f, ok := facts[site.Callee.Fn]; ok && !nonBlocking[site.Call] && !inFuncLit(lits, site.Call) {
				return f, true
			}
		}
		return blockFact{}, false
	}, equalFacts[blockFact])
}

// inFuncLit reports whether call sits inside one of lits.
func inFuncLit(lits []*ast.FuncLit, call *ast.CallExpr) bool {
	for _, lit := range lits {
		if lit.Pos() <= call.Pos() && call.End() <= lit.End() {
			return true
		}
	}
	return false
}

// bodyMentionsMutex is the cheap pre-filter for lockcheck.
func bodyMentionsMutex(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if isSyncMutex(pass.TypesInfo.TypeOf(sel.X)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
