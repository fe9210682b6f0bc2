package lint

import (
	"go/ast"
	"go/types"
)

// Program is the module-wide view one RunAnalyzers call shares across
// every (package, analyzer) pass: the call graph, memoized CFGs, and a
// per-analyzer cache for function summaries. It is what lets gatecheck,
// lockcheck, and detflow see one call level past the function they are
// reporting in.
type Program struct {
	Pkgs []*Package

	graph *CallGraph
	cfgs  map[*ast.BlockStmt]*CFG
	cache map[string]any
	// lockEdges collects every package's acquisition-order edges for
	// the module-global lock-order cycle phase.
	lockEdges []lockEdge
}

// NewProgram wraps the packages of one analysis run.
func NewProgram(pkgs []*Package) *Program {
	return &Program{
		Pkgs:  pkgs,
		cfgs:  make(map[*ast.BlockStmt]*CFG),
		cache: make(map[string]any),
	}
}

// CFG returns the memoized control-flow graph for a function body, so
// the four CFG-based analyzers build each graph once between them.
func (p *Program) CFG(body *ast.BlockStmt) *CFG {
	if c, ok := p.cfgs[body]; ok {
		return c
	}
	c := BuildCFG(body)
	p.cfgs[body] = c
	return c
}

// Cache memoizes one analyzer-scoped value (typically a summary map
// over every module function) for the lifetime of the Program.
func (p *Program) Cache(key string, build func() any) any {
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := build()
	p.cache[key] = v
	return v
}

// CallGraph lazily builds the module-wide static call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = BuildCallGraph(p.Pkgs)
	}
	return p.graph
}

// CallGraph maps every function declared in the analyzed packages to its
// static call sites. Soundness limits, by construction: only direct
// calls are resolved (calls through function values, fields, and
// interface methods without a syntactic receiver type are missing), and
// a call inside a func literal is attributed to the enclosing declared
// function. The analyzers that consume the graph document both limits.
type CallGraph struct {
	Nodes map[*types.Func]*CallNode
}

// CallNode is one declared function or method.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees and Callers are read by no analyzer yet; they are kept
	// for the transitive call-graph summaries planned in ROADMAP.md.
	Callees []*CallSite
	Callers []*CallSite
}

// CallSite is one resolved call expression.
type CallSite struct {
	Caller *CallNode
	Callee *CallNode
	Call   *ast.CallExpr
}

// NodeOf returns the graph node for fn, or nil when fn was not declared
// in the analyzed packages (stdlib, interface methods).
func (g *CallGraph) NodeOf(fn *types.Func) *CallNode {
	return g.Nodes[fn]
}

// BuildCallGraph constructs the graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode)}
	// First pass: a node per declared function.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[fn] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	// Second pass: resolve call sites.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				caller := g.Nodes[fn]
				if caller == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := StaticCallee(pkg.Info, call)
					if callee == nil {
						return true
					}
					target := g.Nodes[callee]
					if target == nil {
						return true
					}
					site := &CallSite{Caller: caller, Callee: target, Call: call}
					caller.Callees = append(caller.Callees, site)
					target.Callers = append(target.Callers, site)
					return true
				})
			}
		}
	}
	return g
}

// StaticCallee resolves the *types.Func a call statically dispatches to:
// plain and package-qualified function calls, and method calls whose
// receiver type is known. Calls through function values and interface
// dynamic dispatch return nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified: pkg.Fn.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
