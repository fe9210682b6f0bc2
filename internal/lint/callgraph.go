package lint

import (
	"go/ast"
	"go/types"
)

// Program is the module-wide view one RunAnalyzers call shares across
// every (package, analyzer) pass: the call graph and its components,
// memoized CFGs, and a per-analyzer cache for function summaries (see
// summarize). It is what lets the interprocedural analyzers see past
// the function they are reporting in, any number of calls deep.
type Program struct {
	Pkgs []*Package

	graph *CallGraph
	sccs  [][]*CallNode
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

// CallGraph maps every function with a body declared in the analyzed
// packages to its static call sites. Soundness limits, by construction:
// only direct calls are resolved (calls through function values,
// fields, and interface methods without a syntactic receiver type are
// missing), and a call inside a func literal is attributed to the
// enclosing declared function. The analyzers that consume the graph
// document both limits.
type CallGraph struct {
	Nodes map[*types.Func]*CallNode
	// order lists the nodes package by package, in source order.
	order []*CallNode
}

// CallNode is one declared function or method with a body. Callees
// lists its resolved call sites in source order; summarize walks them
// callee first.
type CallNode struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Callees []*CallSite
}

// CallSite is one resolved call expression.
type CallSite struct {
	Caller *CallNode
	Callee *CallNode
	Call   *ast.CallExpr
}

// NodeOf returns the graph node for fn, or nil when fn was not declared
// with a body in the analyzed packages (stdlib, interface methods).
func (g *CallGraph) NodeOf(fn *types.Func) *CallNode {
	return g.Nodes[fn]
}

// BuildCallGraph constructs the graph over the given packages: a node
// per function with a body, then each node's resolved call sites.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode)}
	for _, pkg := range pkgs {
		for _, fd := range funcDecls(pkg.Files) {
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				g.Nodes[fn] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.order = append(g.order, g.Nodes[fn])
			}
		}
	}
	for _, caller := range g.order {
		ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if target := g.Nodes[StaticCallee(caller.Pkg.Info, call)]; target != nil {
					caller.Callees = append(caller.Callees, &CallSite{Caller: caller, Callee: target, Call: call})
				}
			}
			return true
		})
	}
	return g
}

// funcDecls lists the function declarations with a body in files, in
// source order.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
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
