package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanCheck enforces channel discipline on the CFG and value-flow
// layers. Go's runtime turns the first two violations into panics — but
// only on the interleaving that reaches them, which is exactly the kind
// of path a test suite samples and production hits:
//
//   - send on a possibly-closed channel: a forward may-analysis tracks
//     the channels closed on some path into each point; a send reached
//     with the channel in that set panics whenever that path is taken.
//   - double close: a second close of a channel already in the
//     closed set, conditionally-closed paths included.
//   - close by a pure receiver: a function that only receives from a
//     channel it did not make must not close it — the sender owns the
//     close, and a receiver-side close races with in-flight sends.
//
// The fourth rule the issue groups here — unbuffered send under a held
// lock — lives in lockcheck's blocking rules, which now distinguish a
// provably-unbuffered send (rendezvous, blocks until a receiver) from a
// send with unknown buffering.
//
// Soundness limits: channels are matched textually within one function
// (no aliasing through assignment), a reassignment (ch = make(...))
// clears the closed state, and the may-join deliberately over-reports a
// close on one branch followed by an unconditional send — that send
// panics whenever the branch is taken, which is the bug.
var ChanCheck = &Analyzer{
	Name: "chancheck",
	Doc:  "forbid sends on possibly-closed channels, double close, and close by a pure receiver",
	Run:  runChanCheck,
}

func runChanCheck(pass *Pass) {
	for _, fd := range funcDecls(pass.Files) {
		forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
			checkChanBody(pass, body)
		})
	}
}

// chanFact is the set of channels closed on some path into a point:
// expr string → first close position (join = union, a may-analysis).
type chanFact map[string]token.Pos

func chanFactEqual(a, b any) bool {
	x, y := a.(chanFact), b.(chanFact)
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

func chanFactJoin(a, b any) any {
	x, y := a.(chanFact), b.(chanFact)
	out := chanFact{}
	for k, v := range x {
		out[k] = v
	}
	for k, v := range y {
		if w, ok := out[k]; !ok || v < w {
			out[k] = v
		}
	}
	return out
}

func checkChanBody(pass *Pass, body *ast.BlockStmt) {
	if !bodyMentionsClose(body) {
		return // every rule needs a close() in this body
	}
	checkCloseOwnership(pass, body)

	cfg := pass.Prog.CFG(body)
	transfer := func(fact any, n ast.Node) any {
		f := fact.(chanFact)
		if key, ok := closeCallIn(pass, n); ok {
			out := make(chanFact, len(f)+1)
			for k, v := range f {
				out[k] = v
			}
			if _, already := out[key]; !already {
				out[key] = n.Pos()
			}
			return out
		}
		// A reassignment hands the name a fresh channel.
		if as, ok := n.(*ast.AssignStmt); ok {
			out := f
			cloned := false
			for _, l := range as.Lhs {
				key := types.ExprString(l)
				if _, closed := f[key]; closed {
					if !cloned {
						out = make(chanFact, len(f))
						for k, v := range f {
							out[k] = v
						}
						cloned = true
					}
					delete(out, key)
				}
			}
			return out
		}
		return f
	}
	in := cfg.Forward(FlowAnalysis{
		Entry:    func() any { return chanFact{} },
		Transfer: transfer,
		Join:     chanFactJoin,
		Equal:    chanFactEqual,
	})
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	for _, blk := range cfg.Blocks {
		fact, ok := in[blk]
		if !ok {
			continue
		}
		f := fact.(chanFact)
		for _, n := range blk.Nodes {
			if len(f) > 0 {
				if key, ok := closeCallIn(pass, n); ok {
					if prev, closed := f[key]; closed {
						report(n.Pos(), "double close of %s (first closed at line %d); closing a closed channel panics", key, pass.Fset.Position(prev).Line)
					}
				}
				ast.Inspect(n, func(m ast.Node) bool {
					if _, ok := m.(*ast.FuncLit); ok {
						return false
					}
					if send, ok := m.(*ast.SendStmt); ok {
						key := types.ExprString(send.Chan)
						if prev, closed := f[key]; closed {
							report(send.Pos(), "send on %s, which may already be closed (closed at line %d); send on a closed channel panics", key, pass.Fset.Position(prev).Line)
						}
					}
					return true
				})
			}
			f = transfer(f, n).(chanFact)
		}
	}
}

// checkCloseOwnership reports closes of channels this body only ever
// receives from: no send, no make — the close belongs to the sender.
func checkCloseOwnership(pass *Pass, body *ast.BlockStmt) {
	sends := make(map[string]bool)
	recvs := make(map[string]bool)
	makes := make(map[string]bool)
	type closeSite struct {
		key string
		pos token.Pos
	}
	var closes []closeSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's usage profile is its own
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sends[types.ExprString(n.Chan)] = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				recvs[types.ExprString(ast.Unparen(n.X))] = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					recvs[types.ExprString(ast.Unparen(n.X))] = true
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "make" && i < len(n.Lhs) {
						makes[types.ExprString(n.Lhs[i])] = true
					}
				}
			}
		case *ast.CallExpr:
			if key, ok := closeCall(pass, n); ok {
				closes = append(closes, closeSite{key, n.Pos()})
			}
		}
		return true
	})
	for _, c := range closes {
		if recvs[c.key] && !sends[c.key] && !makes[c.key] {
			pass.Reportf(c.pos, "close of %s, which this function only receives from; the sender owns the close — a receiver-side close races with in-flight sends and panics", c.key)
		}
	}
}

// closeCall returns (chanKey, true) when call is close(ch) on a channel.
func closeCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "close" || len(call.Args) != 1 {
		return "", false
	}
	if t := pass.TypesInfo.TypeOf(call.Args[0]); t != nil {
		if _, ok := t.Underlying().(*types.Chan); !ok {
			return "", false
		}
	}
	return types.ExprString(ast.Unparen(call.Args[0])), true
}

// closeCallIn unwraps a statement-level close(ch).
func closeCallIn(pass *Pass, n ast.Node) (string, bool) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	return closeCall(pass, call)
}

// bodyMentionsClose is the cheap pre-filter for chancheck.
func bodyMentionsClose(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "close" {
				found = true
			}
		}
		return !found
	})
	return found
}
