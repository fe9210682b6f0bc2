package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrder builds the module-wide mutex acquisition-order graph and
// reports its cycles as potential deadlocks. Every time a
// sync.Mutex/RWMutex is acquired while another is held — directly, or
// through a module function that acquires it, any number of calls down
// — an edge held→acquired is recorded. Two functions that take the same
// pair of locks in opposite orders never crash a test: each is correct
// in isolation, and only a particular interleaving of two goroutines
// deadlocks. The cycle in the static graph is the one artifact that
// exists before the interleaving does.
//
// The per-function analysis shares lockcheck's held-set dataflow
// (forEachHeld: join = intersection, defer mu.Unlock() keeps the section
// open to exit), but keys mutexes globally — a field mutex is named by
// its defining package, owner type, and field (pkg.Type.mu), a
// package-level mutex by pkg.name — so acquisition sites in different
// functions and packages land on the same graph node. A self-edge
// (re-acquiring a mutex already held) is the degenerate one-node cycle;
// it is the module's one self-deadlock rule. When the self-edge's two
// receiver expressions differ (n.mu, then n.next.mu: hand-over-hand
// locking), two instances of one type are held at once; that is not a
// self-deadlock, and it is reported with its own message because the
// analysis does not check the order in which instances are taken.
//
// Cycle detection runs once per analysis over the union of every
// package's edges, and reports each edge that participates in a cyclic
// strongly connected component, at the inner acquisition site.
//
// Soundness limits: local mutexes are keyed per enclosing function and
// cannot form cross-function cycles, and dynamic calls are invisible.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "build the module-wide lock acquisition-order graph and report cycles (potential deadlocks)",
	Run:  runLockOrder,
}

// lockEdge is one acquisition-order fact: To was acquired at Pos while
// From was held (acquired at FromPos). Via names the called helper when
// the inner acquisition happens inside a call. FromRecv and ToRecv are
// set on a self-edge whose two receiver expressions differ.
type lockEdge struct {
	From     string
	To       string
	FromPos  token.Position
	Pos      token.Position
	Via      string
	FromRecv string
	ToRecv   string
}

func runLockOrder(pass *Pass) {
	summaries := lockAcquireSummaries(pass)
	for _, fd := range funcDecls(pass.Files) {
		name := fd.Name.Name
		forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
			pass.Prog.lockEdges = append(pass.Prog.lockEdges, lockOrderEdges(pass, name, body, summaries)...)
		})
	}
}

// lockOrderKey names a mutex so acquisition sites in different functions
// and packages agree: a field mutex by defining package, owner type, and
// field path; a package-level mutex by package and name; a local mutex by
// package, enclosing function, and name (function-scoped, so it can form
// self-cycles but never cross-function ones).
func lockOrderKey(pass *Pass, recv ast.Expr, fnName string) string {
	recv = ast.Unparen(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if t := pass.TypesInfo.TypeOf(e.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return obj.Pkg().Path() + "." + fnName + "." + obj.Name()
		}
	}
	return pass.PkgPath + ":" + types.ExprString(recv)
}

// lockOrderEdges runs the held-set dataflow over one body and returns
// every acquisition-order edge it induces.
func lockOrderEdges(pass *Pass, fnName string, body *ast.BlockStmt, summaries map[*types.Func][]lockAcquire) []lockEdge {
	if !bodyMentionsMutex(pass, body) {
		return nil // no direct acquire here, so the held set stays empty
	}
	key := func(recv ast.Expr) string { return lockOrderKey(pass, recv, fnName) }
	// recv spells each direct acquisition's receiver, so a self-edge
	// between two instances (n.mu, then n.next.mu) is told apart from a
	// re-acquisition of the same one.
	recv := make(map[token.Pos]string)
	ast.Inspect(body, func(m ast.Node) bool {
		if stmt, ok := m.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					recv[stmt.Pos()] = types.ExprString(sel.X)
				}
			}
		}
		return true
	})
	var edges []lockEdge
	seen := make(map[string]bool)
	add := func(held lockFact, to string, pos token.Pos, via string) {
		froms := make([]string, 0, len(held))
		for from := range held {
			froms = append(froms, from)
		}
		sort.Strings(froms)
		for _, from := range froms {
			if via != "" && from == to {
				// Only a direct re-acquisition is a self-edge: one call
				// away, a field key cannot tell the helper's receiver
				// from the held instance.
				continue
			}
			p := pass.Fset.Position(pos)
			k := from + "\x00" + to + "\x00" + p.Filename + "\x00" + fmt.Sprint(p.Line, p.Column)
			if seen[k] {
				continue
			}
			seen[k] = true
			e := lockEdge{
				From:    from,
				To:      to,
				FromPos: pass.Fset.Position(held[from]),
				Pos:     p,
				Via:     via,
			}
			if from == to && recv[held[from]] != recv[pos] {
				e.FromRecv, e.ToRecv = recv[held[from]], recv[pos]
			}
			edges = append(edges, e)
		}
	}
	forEachHeld(pass, body, key, func(n ast.Node, held lockFact) {
		if to, method, ok := mutexOp(pass, n, key); ok && (method == "Lock" || method == "RLock") {
			add(held, to, n.Pos(), "")
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // a literal's acquisitions happen when it runs
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			for _, a := range summaries[callee] {
				via := callee.Name()
				if a.by != callee {
					via += ", which takes it in " + a.by.Name()
				}
				add(held, a.key, call.Pos(), via)
			}
			return true
		})
	})
	return edges
}

// lockAcquire is one mutex a function acquires: its global key, and the
// function whose own body takes it.
type lockAcquire struct {
	key string
	by  *types.Func
}

// lockAcquireSummaries records, sorted by key, every mutex each module
// function acquires: the ones its body takes, plus those of every
// function it calls outside a func literal. A key the body takes itself
// is attributed to the body.
func lockAcquireSummaries(pass *Pass) map[*types.Func][]lockAcquire {
	return summarize(pass, "lockorder.acquires", func(n *CallNode, facts map[*types.Func][]lockAcquire) ([]lockAcquire, bool) {
		p := &Pass{TypesInfo: n.Pkg.Info, Pkg: n.Pkg.Types, PkgPath: n.Pkg.PkgPath}
		key := func(recv ast.Expr) string { return lockOrderKey(p, recv, n.Decl.Name.Name) }
		seen := make(map[string]bool)
		var own []lockAcquire
		var lits []*ast.FuncLit
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				lits = append(lits, lit)
				return false
			}
			if k, method, ok := mutexOp(p, m, key); ok && (method == "Lock" || method == "RLock") && !seen[k] {
				seen[k] = true
				own = append(own, lockAcquire{k, n.Fn})
			}
			return true
		})
		for _, site := range n.Callees {
			for _, a := range facts[site.Callee.Fn] {
				if !seen[a.key] && !inFuncLit(lits, site.Call) {
					seen[a.key] = true
					own = append(own, a)
				}
			}
		}
		sort.Slice(own, func(i, j int) bool { return own[i].key < own[j].key })
		return own, len(own) > 0
	}, slices.Equal[[]lockAcquire])
}

// lockOrderCycles detects cycles in the acquisition-order graph spanned
// by edges and returns one finding per participating edge, reported at
// the inner acquisition site.
func lockOrderCycles(edges []lockEdge) []Finding {
	// A component is cyclic when it holds two locks or more, or one
	// lock with a self-edge.
	adj := make(map[string][]string)
	var nodes []string
	for _, e := range edges {
		nodes = append(nodes, e.From, e.To)
		adj[e.From] = append(adj[e.From], e.To)
	}
	comps := stronglyConnected(nodes, func(n string) []string { return adj[n] })
	scc := make(map[string]int)
	for id, comp := range comps {
		sort.Strings(comp)
		for _, n := range comp {
			scc[n] = id
		}
	}
	cyclic := make(map[int]bool)
	for _, e := range edges {
		id := scc[e.From]
		cyclic[id] = cyclic[id] || e.From == e.To || len(comps[id]) > 1
	}
	var findings []Finding
	seen := make(map[string]bool)
	for _, e := range edges {
		id := scc[e.From]
		if !cyclic[id] || scc[e.To] != id {
			continue
		}
		k := e.From + "\x00" + e.To + "\x00" + e.Pos.Filename + "\x00" + fmt.Sprint(e.Pos.Line, e.Pos.Column)
		if seen[k] {
			continue
		}
		seen[k] = true
		var msg string
		how := shortLockName(e.To)
		if e.Via != "" {
			how += " (via call to " + e.Via + ")"
		}
		if e.From == e.To && e.FromRecv != e.ToRecv {
			msg = fmt.Sprintf("lock order: two instances of %s held at once (%s, then %s); not a self-deadlock, but the order instances are taken in is not checked",
				how, e.FromRecv, e.ToRecv)
		} else if e.From == e.To {
			msg = fmt.Sprintf("lock order cycle: %s acquired while already held (self-deadlock); the goroutine blocks on itself", how)
		} else {
			cycle := slices.Clone(comps[id])
			for i, c := range cycle {
				cycle[i] = shortLockName(c)
			}
			msg = fmt.Sprintf("lock order cycle: acquiring %s while holding %s, but elsewhere the order reverses (cycle: %s); two goroutines taking opposite orders deadlock",
				how, shortLockName(e.From), strings.Join(append(cycle, cycle[0]), " → "))
		}
		findings = append(findings, Finding{Analyzer: LockOrder.Name, Pos: e.Pos, Message: msg})
	}
	SortFindings(findings)
	return findings
}

// shortLockName trims the import-path prefix of a lock key for readable
// reports: "burstlink/internal/cache.LRUOf.mu" → "cache.LRUOf.mu".
func shortLockName(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
