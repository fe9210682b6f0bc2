package lint

import (
	"go/types"
	"sort"
)

// summarize is the one engine behind every interprocedural summary. It
// computes one fact per module function, once per Program (cached under
// key), visiting the call graph's strongly connected components callee
// first: transfer reads the final fact of every callee outside the
// component being summarized, so an effect any number of calls away
// reaches the caller. Only a recursive component (functions that call
// each other, or one that calls itself) is iterated, in source order,
// until no member's fact changes. transfer returns a body's fact given
// the facts so far, and whether it has one; a function without a fact
// is absent from the map. Facts only grow, so the iteration stops; a
// budget guards a transfer that does not converge, as in CFG.Forward.
func summarize[T any](pass *Pass, key string, transfer func(n *CallNode, facts map[*types.Func]T) (T, bool), equal func(a, b T) bool) map[*types.Func]T {
	return pass.Prog.Cache(key, func() any {
		facts := make(map[*types.Func]T)
		for _, comp := range pass.Prog.components() {
			recursive := len(comp) > 1
			for _, site := range comp[0].Callees {
				recursive = recursive || site.Callee == comp[0]
			}
			for budget := 64 * len(comp); budget > 0; budget-- {
				changed := false
				for _, n := range comp {
					f, ok := transfer(n, facts)
					if old, had := facts[n.Fn]; ok && (!had || !equal(old, f)) {
						facts[n.Fn] = f
						changed = true
					}
				}
				if !recursive || !changed {
					break
				}
			}
		}
		return facts
	}).(map[*types.Func]T)
}

// equalFacts is summarize's equal for comparable facts.
func equalFacts[T comparable](a, b T) bool { return a == b }

// viaName names a summarized callee in a message: the callee alone when
// its own body has the effect, else "callee via the function that has
// it".
func viaName(callee, by *types.Func) string {
	if by == nil || by == callee {
		return callee.Name()
	}
	return callee.Name() + " via " + by.Name()
}

// components returns the strongly connected components of the call
// graph, callees first. Roots are taken, and each recursive component's
// members ordered, package by package in source order, so the order is
// the same on every run.
func (p *Program) components() [][]*CallNode {
	if p.sccs != nil {
		return p.sccs
	}
	g := p.CallGraph()
	p.sccs = stronglyConnected(g.order, func(n *CallNode) []*CallNode {
		out := make([]*CallNode, len(n.Callees))
		for i, site := range n.Callees {
			out[i] = site.Callee
		}
		return out
	})
	for _, comp := range p.sccs {
		sort.Slice(comp, func(i, j int) bool {
			a, b := comp[i], comp[j]
			return a.Pkg.PkgPath < b.Pkg.PkgPath || a.Pkg.PkgPath == b.Pkg.PkgPath && a.Decl.Pos() < b.Decl.Pos()
		})
	}
	return p.sccs
}

// stronglyConnected returns the strongly connected components of the
// graph spanned by nodes and succs (iterative Tarjan) in the order they
// complete: each component after every component it reaches. Roots are
// taken in the order of nodes, and successors in the order succs lists
// them.
func stronglyConnected[N comparable](nodes []N, succs func(N) []N) [][]N {
	index := make(map[N]int, len(nodes))
	var low []int
	var onStack []bool
	var stack []N
	var comps [][]N
	type frame struct {
		node  N
		succs []N
	}
	var frames []frame
	push := func(n N) {
		index[n] = len(low)
		low = append(low, len(low))
		onStack = append(onStack, true)
		stack = append(stack, n)
		frames = append(frames, frame{n, succs(n)})
	}
	for _, root := range nodes {
		if _, ok := index[root]; !ok {
			push(root)
		}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n, v := f.node, index[f.node]
			if len(f.succs) > 0 {
				w := f.succs[0]
				f.succs = f.succs[1:]
				if iw, ok := index[w]; !ok {
					push(w)
				} else if onStack[iw] {
					low[v] = min(low[v], iw)
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := index[frames[len(frames)-1].node]
				low[p] = min(low[p], low[v])
			}
			if low[v] == v {
				var comp []N
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[index[w]] = false
					comp = append(comp, w)
					if w == n {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
