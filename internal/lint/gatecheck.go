package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// GateCheck proves that every par.Gate slot taken by Acquire or
// TryAcquire is released on every control-flow path out of the function
// — error returns, panics (via a registered defer), and early breaks
// included. A leaked slot never crashes: it silently lowers the gate's
// effective capacity until the service stops admitting work, which is
// exactly the failure mode a load test times out on instead of
// diagnosing.
//
// The analysis runs on the per-function CFG with a forward dataflow
// whose facts track, per gate expression, whether a slot is held,
// released by a pending defer, or only maybe-held (paths disagree). It
// is path-sensitive across the two acquisition idioms:
//
//	if g.TryAcquire() { ... }            // true edge holds, false doesn't
//	if err := g.Acquire(ctx); err != nil // nil-error edge holds
//
// Interprocedural reach is release-side only: a call to a module
// function whose body calls g.Release(), itself or through its callees
// any number of calls down, counts as a release of g (receiver
// expressions are matched textually, so the helper must name the gate
// the same way).
// Acquire results returned to the caller transfer ownership and are the
// caller's to release.
var GateCheck = &Analyzer{
	Name: "gatecheck",
	Doc:  "require every par.Gate Acquire/TryAcquire slot to be released on all CFG paths (defers included)",
	Run:  runGateCheck,
}

// Per-gate hold states. The join lattice: Unheld and Deferred are safe
// at exit, Held is a leak, and Maybe (paths disagree) is reported too —
// a slot that leaks on one path still exhausts the gate.
const (
	gUnheld = iota
	gHeld
	gDeferred
	gMaybe
)

// gateState is the fact for one gate expression.
type gateState struct {
	kind int
	// pos is the acquire site reported on a leak.
	pos token.Pos
	// bind ties the state to the acquire whose boolean/error result the
	// branch refinement may still test.
	bind token.Pos
}

// gateBinding records that a variable holds the result of an acquire:
// the TryAcquire bool or the Acquire error.
type gateBinding struct {
	isErr bool
	gate  string
	pos   token.Pos
}

// gateFact is the dataflow fact: hold state per gate expression plus
// live result bindings.
type gateFact struct {
	gates map[string]gateState
	vars  map[types.Object]gateBinding
}

func (f gateFact) clone() gateFact {
	g := gateFact{gates: make(map[string]gateState, len(f.gates)), vars: make(map[types.Object]gateBinding, len(f.vars))}
	for k, v := range f.gates {
		g.gates[k] = v
	}
	for k, v := range f.vars {
		g.vars[k] = v
	}
	return g
}

func gateFactEqual(a, b any) bool {
	x, y := a.(gateFact), b.(gateFact)
	if len(x.gates) != len(y.gates) || len(x.vars) != len(y.vars) {
		return false
	}
	for k, v := range x.gates {
		if y.gates[k] != v {
			return false
		}
	}
	for k, v := range x.vars {
		if y.vars[k] != v {
			return false
		}
	}
	return true
}

func gateFactJoin(a, b any) any {
	x, y := a.(gateFact), b.(gateFact)
	out := gateFact{gates: make(map[string]gateState), vars: make(map[types.Object]gateBinding)}
	for k, xs := range x.gates {
		ys, ok := y.gates[k]
		if !ok {
			ys = gateState{kind: gUnheld}
		}
		out.gates[k] = joinGateState(xs, ys)
	}
	for k, ys := range y.gates {
		if _, ok := x.gates[k]; !ok {
			out.gates[k] = joinGateState(gateState{kind: gUnheld}, ys)
		}
	}
	// A binding survives a merge only when both paths agree on it.
	for k, v := range x.vars {
		if y.vars[k] == v {
			out.vars[k] = v
		}
	}
	return out
}

func joinGateState(a, b gateState) gateState {
	if a == b {
		return a
	}
	if a.kind == b.kind {
		// Same kind, different acquire sites: keep the earlier site and
		// drop the binding tie (it is no longer unambiguous).
		if b.pos != token.NoPos && (a.pos == token.NoPos || b.pos < a.pos) {
			a.pos = b.pos
		}
		a.bind = token.NoPos
		return a
	}
	ak, bk := a.kind, b.kind
	if ak == gUnheld && bk == gDeferred || ak == gDeferred && bk == gUnheld {
		// Both are safe at exit; Deferred also absorbs later acquires.
		return gateState{kind: gDeferred}
	}
	// One side holds (or maybe-holds) and the other does not: a leak on
	// at least one path. Keep the acquire position for the report.
	pos := a.pos
	if pos == token.NoPos {
		pos = b.pos
	}
	return gateState{kind: gMaybe, pos: pos}
}

func runGateCheck(pass *Pass) {
	summaries := gateReleaseSummaries(pass)
	for _, fd := range funcDecls(pass.Files) {
		forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
			checkGateBody(pass, body, summaries)
		})
	}
}

// forEachFuncBody visits body and the body of every func literal inside
// it, each as an independent function (a literal that acquires must
// release within itself — its lifetime is not the enclosing frame's).
// Literal bodies are excluded from the enclosing visit.
func forEachFuncBody(body *ast.BlockStmt, visit func(*ast.BlockStmt)) {
	visit(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			forEachFuncBody(lit.Body, visit)
			return false
		}
		return true
	})
}

// bodyMentionsGate is the cheap pre-filter: only bodies that touch a
// Gate method at all get a CFG and a dataflow run.
func bodyMentionsGate(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if g, _ := gateMethod(pass, sel); g != "" {
				found = true
			}
		}
		return !found
	})
	return found
}

func checkGateBody(pass *Pass, body *ast.BlockStmt, summaries map[*types.Func][]string) {
	if !bodyMentionsGate(pass, body) {
		return
	}
	cfg := pass.Prog.CFG(body)
	analysis := FlowAnalysis{
		Entry:    func() any { return gateFact{gates: map[string]gateState{}, vars: map[types.Object]gateBinding{}} },
		Transfer: func(fact any, n ast.Node) any { return gateTransfer(pass, fact.(gateFact), n, summaries, body) },
		Branch:   func(fact any, cond ast.Expr, truth bool) any { return gateBranch(pass, fact.(gateFact), cond, truth) },
		Join:     gateFactJoin,
		Equal:    gateFactEqual,
	}
	in := cfg.Forward(analysis)
	exit, ok := in[cfg.Exit]
	if !ok {
		return
	}
	f := exit.(gateFact)
	reported := make(map[token.Pos]bool)
	for key, st := range f.gates {
		if (st.kind == gHeld || st.kind == gMaybe) && st.pos != token.NoPos && !reported[st.pos] {
			reported[st.pos] = true
			how := "is not released"
			if st.kind == gMaybe {
				how = "is not released on every path"
			}
			pass.Reportf(st.pos, "gate slot acquired on %s %s before the function returns; release it (or defer %s.Release()) on all paths, error returns and panics included", key, how, key)
		}
	}
}

// gateMethod returns (gateKey, methodName) when sel selects a method on
// a par.Gate value, matching the real module package and the testdata
// stub alike.
func gateMethod(pass *Pass, sel *ast.SelectorExpr) (string, string) {
	name := sel.Sel.Name
	if name != "Acquire" && name != "TryAcquire" && name != "Release" {
		return "", ""
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil || !isParGate(t) {
		return "", ""
	}
	return types.ExprString(sel.X), name
}

// isParGate reports whether t is par.Gate or *par.Gate.
func isParGate(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Gate" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/par" || strings.HasSuffix(path, "/internal/par")
}

// gateCallIn unwraps e to a Gate method call, if it is one.
func gateCallIn(pass *Pass, e ast.Expr) (*ast.CallExpr, string, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	gate, method := gateMethod(pass, sel)
	return call, gate, method
}

func gateTransfer(pass *Pass, f gateFact, n ast.Node, summaries map[*types.Func][]string, body *ast.BlockStmt) any {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 {
			if call, gate, method := gateCallIn(pass, n.Rhs[0]); call != nil && (method == "Acquire" || method == "TryAcquire") {
				out := f.clone()
				// The slot may be held from here on; the branch on the
				// result refines this to held or unheld.
				out.gates[gate] = acquireState(out.gates[gate], call.Pos())
				if len(n.Lhs) == 1 {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							out.vars[obj] = gateBinding{isErr: method == "Acquire", gate: gate, pos: call.Pos()}
						} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
							out.vars[obj] = gateBinding{isErr: method == "Acquire", gate: gate, pos: call.Pos()}
						}
					}
				}
				return out
			}
		}
		// Any other assignment kills the bindings of its targets.
		out := f
		cloned := false
		for _, l := range n.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				for _, obj := range []types.Object{pass.TypesInfo.Defs[id], pass.TypesInfo.Uses[id]} {
					if obj == nil {
						continue
					}
					if _, bound := f.vars[obj]; bound {
						if !cloned {
							out = f.clone()
							cloned = true
						}
						delete(out.vars, obj)
					}
				}
			}
		}
		return out
	case *ast.ExprStmt:
		return gateCallEffect(pass, f, n.X, false, summaries)
	case *ast.DeferStmt:
		return gateDeferEffect(pass, f, n.Call, summaries)
	}
	return f
}

// acquireState is the post-state of an acquire call given the prior
// state: a pending deferred release absorbs the new slot.
func acquireState(prev gateState, pos token.Pos) gateState {
	if prev.kind == gDeferred {
		return prev
	}
	return gateState{kind: gMaybe, pos: pos, bind: pos}
}

// gateCallEffect applies a call statement's effect: releases (direct or
// via a summarized helper) clear the hold; a bare acquire whose result is
// discarded counts as held, because the slot may be taken with nothing
// tracking it.
func gateCallEffect(pass *Pass, f gateFact, e ast.Expr, deferred bool, summaries map[*types.Func][]string) gateFact {
	call, gate, method := gateCallIn(pass, e)
	if gate != "" {
		out := f.clone()
		switch method {
		case "Release":
			if deferred {
				out.gates[gate] = gateState{kind: gDeferred}
			} else {
				out.gates[gate] = gateState{kind: gUnheld}
			}
		case "Acquire", "TryAcquire":
			out.gates[gate] = acquireState(out.gates[gate], call.Pos())
			if out.gates[gate].kind == gMaybe {
				// Result discarded: treat as definitely held so the leak
				// is reported even though no branch can refine it.
				out.gates[gate] = gateState{kind: gHeld, pos: call.Pos()}
			}
		}
		return out
	}
	// A module function whose summary releases a gate named the same
	// way.
	if c, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if callee := StaticCallee(pass.TypesInfo, c); callee != nil {
			if keys := summaries[callee]; len(keys) > 0 {
				out := f.clone()
				for _, k := range keys {
					if deferred {
						out.gates[k] = gateState{kind: gDeferred}
					} else {
						out.gates[k] = gateState{kind: gUnheld}
					}
				}
				return out
			}
		}
	}
	return f
}

// gateDeferEffect handles defer statements: a deferred release (direct,
// through a helper, or inside a deferred func literal) marks the gate
// released-at-exit on every path that registered it.
func gateDeferEffect(pass *Pass, f gateFact, call *ast.CallExpr, summaries map[*types.Func][]string) gateFact {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		out := f
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if es, ok := n.(*ast.ExprStmt); ok {
				out = gateCallEffect(pass, out, es.X, true, summaries)
			}
			return true
		})
		return out
	}
	return gateCallEffect(pass, f, call, true, summaries)
}

// gateBranch refines the fact along a conditional edge for the two
// acquisition idioms (TryAcquire bool, Acquire error).
func gateBranch(pass *Pass, f gateFact, cond ast.Expr, truth bool) any {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op.String() == "!" {
		return gateBranch(pass, f, u.X, !truth)
	}
	// if g.TryAcquire() { ... }
	if call, gate, method := gateCallIn(pass, cond); call != nil && method == "TryAcquire" {
		return refineGate(f, gate, call.Pos(), truth)
	}
	// if ok { ... } with ok := g.TryAcquire()
	if id, ok := cond.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			if b, bound := f.vars[obj]; bound && !b.isErr {
				return refineGate(f, b.gate, b.pos, truth)
			}
		}
	}
	// if err != nil / err == nil with err := g.Acquire(ctx)
	if bin, ok := cond.(*ast.BinaryExpr); ok {
		op := bin.Op.String()
		if op == "!=" || op == "==" {
			id, other := bin.X, bin.Y
			if !isNilIdent(other) {
				id, other = other, id
			}
			if isNilIdent(other) {
				if x, ok := ast.Unparen(id).(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[x]; obj != nil {
						if b, bound := f.vars[obj]; bound && b.isErr {
							// err != nil true ⇒ not held; err == nil true ⇒ held.
							held := (op == "==") == truth
							return refineGate(f, b.gate, b.pos, held)
						}
					}
				}
			}
		}
	}
	return f
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// refineGate pins gate's state to held or unheld when the current state
// still stems from the acquire the condition tests. A missing entry is
// seeded here: `if g.TryAcquire()` acquires inside the condition itself,
// so no statement-level transfer ever ran for it.
func refineGate(f gateFact, gate string, bind token.Pos, held bool) gateFact {
	st, ok := f.gates[gate]
	if !ok {
		st = gateState{kind: gUnheld, pos: bind, bind: bind}
	}
	if st.kind == gDeferred || (st.bind != bind && st.bind != token.NoPos) {
		return f
	}
	out := f.clone()
	if held {
		out.gates[gate] = gateState{kind: gHeld, pos: st.pos, bind: bind}
	} else {
		out.gates[gate] = gateState{kind: gUnheld}
	}
	return out
}

// gateReleaseSummaries records the gate keys each module function
// releases: a g.Release() or defer g.Release() statement anywhere in
// its body, or such a call statement to a function whose summary
// releases (its own releases first). It over-approximates on the
// release side only, so a conditional helper can hide a leak but never
// invent one.
func gateReleaseSummaries(pass *Pass) map[*types.Func][]string {
	return summarize(pass, "gatecheck.releases", func(n *CallNode, facts map[*types.Func][]string) ([]string, bool) {
		p := &Pass{TypesInfo: n.Pkg.Info}
		var own, inherited []string
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			var e ast.Expr
			switch m := m.(type) {
			case *ast.ExprStmt:
				e = m.X
			case *ast.DeferStmt:
				e = m.Call
			default:
				return true
			}
			if _, gate, method := gateCallIn(p, e); gate != "" {
				if method == "Release" && !slices.Contains(own, gate) {
					own = append(own, gate)
				}
			} else if c, ok := ast.Unparen(e).(*ast.CallExpr); ok {
				if callee := StaticCallee(p.TypesInfo, c); callee != nil {
					inherited = append(inherited, facts[callee]...)
				}
			}
			return true
		})
		for _, k := range inherited {
			if !slices.Contains(own, k) {
				own = append(own, k)
			}
		}
		return own, len(own) > 0
	}, slices.Equal[[]string])
}
