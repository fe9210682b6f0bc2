package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module-wide mutex acquisition-order graph and
// reports its cycles as potential deadlocks. Every time a
// sync.Mutex/RWMutex is acquired while another is held — directly, or
// one call level away through a module function whose body acquires —
// an edge held→acquired is recorded. Two functions that take the same
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
// cannot form cross-function cycles; dynamic calls are invisible; the
// interprocedural reach is one call level (no transitive closure).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "build the module-wide lock acquisition-order graph and report cycles (potential deadlocks)",
	Run:  runLockOrder,
}

// lockEdge is one acquisition-order fact: To was acquired at Pos while
// From was held (acquired at FromPos). Via names the called helper when
// the inner acquisition is one call level away. FromRecv and ToRecv are
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
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
				pass.Prog.lockEdges = append(pass.Prog.lockEdges, lockOrderEdges(pass, name, body, summaries)...)
			})
		}
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
func lockOrderEdges(pass *Pass, fnName string, body *ast.BlockStmt, summaries map[*types.Func][]string) []lockEdge {
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
			for _, to := range summaries[callee] {
				add(held, to, call.Pos(), callee.Name())
			}
			return true
		})
	})
	return edges
}

// lockAcquireSummaries computes, once per Program, the global keys of
// every mutex each module function's own body directly acquires — the
// one call level the edge recorder reaches past the reporting function.
func lockAcquireSummaries(pass *Pass) map[*types.Func][]string {
	v := pass.Prog.Cache("lockorder.acquires", func() any {
		out := make(map[*types.Func][]string)
		for _, node := range pass.Prog.CallGraph().Nodes {
			if node.Decl == nil || node.Decl.Body == nil {
				continue
			}
			p := &Pass{TypesInfo: node.Pkg.Info, Pkg: node.Pkg.Types, PkgPath: node.Pkg.PkgPath}
			name := node.Decl.Name.Name
			key := func(recv ast.Expr) string { return lockOrderKey(p, recv, name) }
			seen := make(map[string]bool)
			var keys []string
			ast.Inspect(node.Decl.Body, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if k, method, ok := mutexOp(p, m, key); ok && (method == "Lock" || method == "RLock") && !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
				return true
			})
			if len(keys) > 0 {
				sort.Strings(keys)
				out[node.Fn] = keys
			}
		}
		return out
	})
	return v.(map[*types.Func][]string)
}

// lockOrderCycles detects cycles in the acquisition-order graph spanned
// by edges and returns one finding per participating edge, reported at
// the inner acquisition site.
func lockOrderCycles(edges []lockEdge) []Finding {
	scc := lockSCC(edges)
	cyclic := make(map[int]bool)
	count := make(map[int]int)
	for _, id := range scc {
		count[id]++
	}
	for id, n := range count {
		if n > 1 {
			cyclic[id] = true
		}
	}
	for _, e := range edges {
		if e.From == e.To {
			cyclic[scc[e.From]] = true
		}
	}
	members := make(map[int][]string)
	for node, id := range scc {
		if cyclic[id] {
			members[id] = append(members[id], node)
		}
	}
	for _, m := range members {
		sort.Strings(m)
	}
	var findings []Finding
	seen := make(map[string]bool)
	for _, e := range edges {
		id, ok := scc[e.From]
		if !ok || !cyclic[id] || scc[e.To] != id {
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
			cycle := append([]string(nil), members[id]...)
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

// lockSCC assigns each graph node a strongly-connected-component id
// (iterative Tarjan, nodes visited in sorted order for determinism).
func lockSCC(edges []lockEdge) map[string]int {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	edgeSeen := make(map[string]bool)
	for _, e := range edges {
		nodes[e.From], nodes[e.To] = true, true
		k := e.From + "\x00" + e.To
		if !edgeSeen[k] {
			edgeSeen[k] = true
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, succs := range adj {
		sort.Strings(succs)
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	scc := make(map[string]int)
	var stack []string
	next, comp := 0, 0

	type frame struct {
		node string
		succ int
	}
	var visit func(root string)
	visit = func(root string) {
		frames := []frame{{node: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.succ < len(adj[f.node]) {
				w := adj[f.node][f.succ]
				f.succ++
				if _, ok := index[w]; !ok {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			if low[f.node] == index[f.node] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc[w] = comp
					if w == f.node {
						break
					}
				}
				comp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.node] < low[p.node] {
					low[p.node] = low[f.node]
				}
			}
		}
	}
	for _, n := range order {
		if _, ok := index[n]; !ok {
			visit(n)
		}
	}
	return scc
}
