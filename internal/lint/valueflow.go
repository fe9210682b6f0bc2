package lint

// valueflow.go is blklint's third-generation analysis layer (DESIGN.md
// §4.11): an SSA-lite value-origin analysis underneath aliascheck and
// purecheck. For every function body it computes, per local variable,
// where the variable's aliasable memory may have come from — a
// receiver/parameter slot (caller-owned), a cache hit (shared,
// immutable by contract), fresh allocation (owned), or unknown — and
// summarizes each function for its callers: which slots it writes
// through, which slots its results may alias, and which results hand
// back cache-resident memory, through its callees any number of calls
// deep.
//
// Soundness posture, by construction: origins the analysis cannot
// resolve (dynamic calls, globals, channel receives) collapse to
// unknown, and unknown never fires a diagnostic. The layer trades
// false negatives for a near-zero false-positive rate, exactly like
// the call-graph layer it sits on; its blind spots (calls through
// function values, aliases smuggled through struct stores, reflection)
// are the call graph's blind spots.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// aliasable reports whether values of type t can carry references to
// shared mutable memory. Strings are immutable and excluded; a struct
// or array is aliasable iff some field/element is.
func aliasable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasable(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return aliasable(u.Elem())
	}
	return false
}

// origins is the abstract value of one variable or expression: the set
// of places its aliasable memory may have come from.
type origins struct {
	// params maps caller-visible slots (0 = receiver when the function
	// has one, then parameters in order) the memory may alias.
	params map[int]bool
	// hits maps call positions of cache-hit sources (memo.Do, cache
	// Get and Do, sink Floats) the memory may alias.
	hits map[token.Pos]bool
	// fresh marks memory allocated inside the function.
	fresh bool
	// unknown marks memory the analysis cannot attribute; it never
	// contributes to a diagnostic.
	unknown bool
}

func (o *origins) hasParams() bool { return o != nil && len(o.params) > 0 }
func (o *origins) hasHits() bool   { return o != nil && len(o.hits) > 0 }

// merge unions other into o and reports whether o changed.
func (o *origins) merge(other *origins) bool {
	if other == nil {
		return false
	}
	changed := false
	for s := range other.params {
		if !o.params[s] {
			if o.params == nil {
				o.params = make(map[int]bool)
			}
			o.params[s] = true
			changed = true
		}
	}
	for p := range other.hits {
		if !o.hits[p] {
			if o.hits == nil {
				o.hits = make(map[token.Pos]bool)
			}
			o.hits[p] = true
			changed = true
		}
	}
	if other.fresh && !o.fresh {
		o.fresh = true
		changed = true
	}
	if other.unknown && !o.unknown {
		o.unknown = true
		changed = true
	}
	return changed
}

// valueFact is the value-flow summary of one function, built on the
// summaries of its callees.
type valueFact struct {
	// mutates[slot]: the function writes through memory reachable from
	// the slot (0 = receiver when present, then parameters); the value
	// is the function whose own body writes.
	mutates map[int]*types.Func
	// aliases[result][slot]: the result may alias the slot.
	aliases map[int]map[int]bool
	// fresh[result]: the result may be memory the function allocates.
	fresh map[int]bool
	// borrows[result]: the result may alias cache-resident memory; the
	// value is the function whose own body holds the cache-hit source.
	borrows map[int]*types.Func
}

func valueFactEqual(a, b valueFact) bool {
	return maps.Equal(a.mutates, b.mutates) && maps.Equal(a.fresh, b.fresh) && maps.Equal(a.borrows, b.borrows) &&
		maps.EqualFunc(a.aliases, b.aliases, maps.Equal[map[int]bool])
}

// valueFlowSummaries builds the mutation, alias, freshness, and borrow
// summaries of every declared module function.
func valueFlowSummaries(pass *Pass) map[*types.Func]valueFact {
	return summarize(pass, "valueflow.summaries", func(n *CallNode, facts map[*types.Func]valueFact) (valueFact, bool) {
		fn, info := n.Fn, n.Pkg.Info
		fl := newFlowState(info, slotObjects(info, n.Decl), facts)
		fl.solve(n.Decl.Body)

		// Mutation summary: write sites whose base aliases a slot, then
		// calls that pass a slot's memory to a callee writing through
		// it. A partly fresh argument (a new reader wrapping the slot's
		// bytes) does not count: the callee's write may land in the new
		// memory. Writes and calls inside nested func literals count —
		// the call graph attributes their execution to the enclosing
		// function.
		vf := valueFact{mutates: make(map[int]*types.Func)}
		for _, ws := range collectWriteSites(info, n.Decl.Body) {
			for s := range fl.exprOrigins(ws.base).params {
				vf.mutates[s] = fn
			}
		}
		for _, site := range n.Callees {
			mut := facts[site.Callee.Fn].mutates
			for _, slot := range sortedSlots(mut) {
				for _, arg := range argsForSlot(info, site.Call, site.Callee.Fn, slot) {
					if o := fl.exprOrigins(arg); !o.fresh {
						for s := range o.params {
							if _, ok := vf.mutates[s]; !ok {
								vf.mutates[s] = mut[slot]
							}
						}
					}
				}
			}
		}

		// Alias, freshness and borrow summaries: origins of returned
		// results. Returns inside nested func literals do not return
		// from fn.
		vf.aliases = make(map[int]map[int]bool)
		vf.fresh = make(map[int]bool)
		vf.borrows = make(map[int]*types.Func)
		forEachReturn(n.Decl, func(results []*origins) {
			for ri, o := range results {
				for s := range o.params {
					if vf.aliases[ri] == nil {
						vf.aliases[ri] = make(map[int]bool)
					}
					vf.aliases[ri][s] = true
				}
				if o.fresh {
					vf.fresh[ri] = true
				}
				if _, ok := vf.borrows[ri]; !ok && o.hasHits() {
					vf.borrows[ri] = fl.hitBy(o, fn)
				}
			}
		}, fl)
		return vf, len(vf.mutates)+len(vf.aliases)+len(vf.fresh)+len(vf.borrows) > 0
	}, valueFactEqual)
}

// sortedSlots lists the slots of a mutation summary in order.
func sortedSlots(mut map[int]*types.Func) []int {
	slots := make([]int, 0, len(mut))
	for s := range mut {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	return slots
}

// forEachReturn resolves the origins of every result of every return
// statement of decl (nested func literals excluded) and passes them to
// visit. Bare returns resolve through the named result variables; a
// single multi-value call result is expanded per result.
func forEachReturn(decl *ast.FuncDecl, visit func([]*origins), fl *flowState) {
	nres := 0
	var namedResults []types.Object
	if decl.Type.Results != nil {
		for _, f := range decl.Type.Results.List {
			if len(f.Names) == 0 {
				nres++
				namedResults = append(namedResults, nil)
				continue
			}
			for _, n := range f.Names {
				nres++
				namedResults = append(namedResults, fl.info.Defs[n])
			}
		}
	}
	if nres == 0 {
		return
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			var results []*origins
			switch {
			case len(x.Results) == 0:
				for _, obj := range namedResults {
					if obj != nil && fl.vars[obj] != nil {
						results = append(results, fl.vars[obj])
					} else {
						results = append(results, &origins{})
					}
				}
			case len(x.Results) == 1 && nres > 1:
				if call, ok := ast.Unparen(x.Results[0]).(*ast.CallExpr); ok {
					results = fl.callOrigins(call, nres)
				}
			default:
				for _, res := range x.Results {
					results = append(results, fl.exprOrigins(res))
				}
			}
			visit(results)
		}
		return true
	}
	ast.Inspect(decl.Body, walk)
}

// slotObjects lists decl's receiver (if any) then parameters in slot
// order; unnamed or blank entries hold a nil placeholder so indices
// stay aligned with the signature.
func slotObjects(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, n := range f.Names {
				if n.Name == "_" {
					out = append(out, nil)
					continue
				}
				out = append(out, info.Defs[n])
			}
		}
	}
	add(decl.Recv)
	add(decl.Type.Params)
	return out
}

// flowState is one function body's value-origin analysis.
type flowState struct {
	info  *types.Info
	sums  map[*types.Func]valueFact
	slots []types.Object
	vars  map[types.Object]*origins
	// descs names each cache-hit source position for diagnostics, and
	// borrowers the function holding the source of a hit that a callee's
	// result hands back.
	descs     map[token.Pos]string
	borrowers map[token.Pos]*types.Func
	changed   bool
}

func newFlowState(info *types.Info, slots []types.Object, sums map[*types.Func]valueFact) *flowState {
	fl := &flowState{
		info:      info,
		sums:      sums,
		slots:     slots,
		vars:      make(map[types.Object]*origins),
		descs:     make(map[token.Pos]string),
		borrowers: make(map[token.Pos]*types.Func),
	}
	for i, obj := range slots {
		if obj == nil {
			continue
		}
		if v, ok := obj.(*types.Var); ok && aliasable(v.Type()) {
			fl.vars[obj] = &origins{params: map[int]bool{i: true}}
		}
	}
	return fl
}

// maxFlowRounds bounds the fixpoint: each round can only propagate
// origins one assignment further, and real bodies converge in two or
// three.
const maxFlowRounds = 8

// solve runs the flow-insensitive fixpoint over every binding in body,
// nested func literals included (captured variables flow through the
// shared environment).
func (fl *flowState) solve(body *ast.BlockStmt) {
	for round := 0; round < maxFlowRounds; round++ {
		fl.changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				fl.assign(st)
			case *ast.ValueSpec:
				fl.valueSpec(st)
			case *ast.RangeStmt:
				fl.rangeBind(st)
			}
			return true
		})
		if !fl.changed {
			break
		}
	}
}

func (fl *flowState) assign(st *ast.AssignStmt) {
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			fl.bind(lhs, fl.exprOrigins(st.Rhs[i]))
		}
		return
	}
	if len(st.Rhs) != 1 {
		return
	}
	results := fl.multiOrigins(st.Rhs[0], len(st.Lhs))
	for i, lhs := range st.Lhs {
		fl.bind(lhs, results[i])
	}
}

func (fl *flowState) valueSpec(spec *ast.ValueSpec) {
	switch {
	case len(spec.Values) == len(spec.Names):
		for i, name := range spec.Names {
			fl.bindIdent(name, fl.exprOrigins(spec.Values[i]))
		}
	case len(spec.Values) == 1 && len(spec.Names) > 1:
		results := fl.multiOrigins(spec.Values[0], len(spec.Names))
		for i, name := range spec.Names {
			fl.bindIdent(name, results[i])
		}
	}
}

func (fl *flowState) rangeBind(st *ast.RangeStmt) {
	o := fl.exprOrigins(st.X)
	if st.Key != nil {
		if t := fl.info.TypeOf(st.Key); aliasable(t) {
			fl.bind(st.Key, o)
		}
	}
	if st.Value != nil {
		if t := fl.info.TypeOf(st.Value); aliasable(t) {
			fl.bind(st.Value, o)
		}
	}
}

// bind merges o into the variable lhs names, when lhs is a plain
// identifier. Writes through selectors/indexes mutate memory rather
// than rebinding a variable; collectWriteSites accounts for those.
func (fl *flowState) bind(lhs ast.Expr, o *origins) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		fl.bindIdent(id, o)
	}
}

func (fl *flowState) bindIdent(id *ast.Ident, o *origins) {
	if id.Name == "_" || o == nil {
		return
	}
	obj := fl.info.Defs[id]
	if obj == nil {
		obj = fl.info.Uses[id]
	}
	if obj == nil {
		return
	}
	cur := fl.vars[obj]
	if cur == nil {
		cur = &origins{}
		fl.vars[obj] = cur
	}
	if cur.merge(o) {
		fl.changed = true
	}
}

// exprOrigins resolves the origins of one expression. It never returns
// nil.
func (fl *flowState) exprOrigins(e ast.Expr) *origins {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return fl.identOrigins(x)
	case *ast.SelectorExpr:
		// pkg.Var — a package-qualified global is unattributable.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, ok := fl.info.Uses[id].(*types.PkgName); ok {
				return &origins{unknown: true}
			}
		}
		return fl.exprOrigins(x.X)
	case *ast.IndexExpr:
		return fl.exprOrigins(x.X)
	case *ast.IndexListExpr:
		return fl.exprOrigins(x.X)
	case *ast.SliceExpr:
		return fl.exprOrigins(x.X)
	case *ast.StarExpr:
		return fl.exprOrigins(x.X)
	case *ast.UnaryExpr:
		// &x allocates nothing: &rows[i] and &hit.f point into the
		// memory rows and hit came from. &T{...} is fresh through its
		// composite literal.
		if x.Op == token.AND {
			return fl.exprOrigins(x.X)
		}
		if x.Op == token.ARROW {
			return &origins{unknown: true}
		}
		return &origins{}
	case *ast.CompositeLit:
		o := &origins{fresh: true}
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			o.merge(fl.exprOrigins(el))
		}
		return o
	case *ast.CallExpr:
		return fl.callOrigins(x, 1)[0]
	case *ast.TypeAssertExpr:
		return fl.exprOrigins(x.X)
	case *ast.FuncLit:
		return &origins{fresh: true}
	}
	return &origins{}
}

func (fl *flowState) identOrigins(id *ast.Ident) *origins {
	obj := fl.info.Uses[id]
	if obj == nil {
		obj = fl.info.Defs[id]
	}
	if obj == nil {
		return &origins{}
	}
	if o := fl.vars[obj]; o != nil {
		return o
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return &origins{unknown: true}
	}
	return &origins{}
}

// multiOrigins resolves a single n-valued expression (call, type
// assertion, map index, channel receive) into per-result origins.
func (fl *flowState) multiOrigins(rhs ast.Expr, n int) []*origins {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		return fl.callOrigins(x, n)
	case *ast.TypeAssertExpr, *ast.IndexExpr, *ast.UnaryExpr:
		out := emptyOrigins(n)
		out[0] = fl.exprOrigins(rhs)
		return out
	}
	return emptyOrigins(n)
}

func emptyOrigins(n int) []*origins {
	out := make([]*origins, n)
	for i := range out {
		out[i] = &origins{}
	}
	return out
}

// callOrigins resolves the per-result origins of a call: conversions
// and builtins structurally, cache-hit sources and defensive-copy
// helpers by name, everything else through the callee's summary.
func (fl *flowState) callOrigins(call *ast.CallExpr, n int) []*origins {
	out := emptyOrigins(n)

	// Conversion: string<->[]byte/[]rune copies; others alias the
	// operand ([]T(x), Named(x), unsafe-free pointer conversions).
	if tv, ok := fl.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if conversionCopies(fl.info.TypeOf(call.Args[0]), tv.Type) {
				out[0].fresh = true
			} else {
				out[0].merge(fl.exprOrigins(call.Args[0]))
			}
		}
		return out
	}

	// Builtins: append aliases (and may grow past) its first operand;
	// make/new allocate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fl.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				out[0].fresh = true
				if len(call.Args) > 0 {
					out[0].merge(fl.exprOrigins(call.Args[0]))
				}
			case "make", "new":
				out[0].fresh = true
			}
			return out
		}
	}

	// Cache-hit sources hand back cache-resident memory.
	if desc, ok := borrowSource(fl.info, call); ok {
		out[0].hits = map[token.Pos]bool{call.Pos(): true}
		fl.descs[call.Pos()] = desc
		return out
	}

	// Defensive-copy helpers allocate.
	if isCloneCall(fl.info, call) {
		out[0].fresh = true
		return out
	}

	callee := StaticCallee(fl.info, call)
	if callee == nil {
		for i := range out {
			out[i].unknown = true
		}
		return out
	}
	sum := fl.sums[callee]
	for ri := range sum.fresh {
		if ri < n {
			out[ri].fresh = true
		}
	}
	for ri, slotset := range sum.aliases {
		if ri >= n {
			continue
		}
		for slot := range slotset {
			for _, arg := range argsForSlot(fl.info, call, callee, slot) {
				out[ri].merge(fl.exprOrigins(arg))
			}
		}
	}
	for ri, by := range sum.borrows {
		if ri >= n {
			continue
		}
		if out[ri].hits == nil {
			out[ri].hits = make(map[token.Pos]bool)
		}
		out[ri].hits[call.Pos()] = true
		fl.descs[call.Pos()] = viaName(callee, by) + " (returns cache-resident memory)"
		fl.borrowers[call.Pos()] = by
	}
	return out
}

// firstHit is the earliest cache-hit source position in o.
func firstHit(o *origins) token.Pos {
	var best token.Pos
	for p := range o.hits {
		if best == 0 || p < best {
			best = p
		}
	}
	return best
}

// hitDesc names the earliest cache-hit source in o for a diagnostic.
func (fl *flowState) hitDesc(o *origins) string {
	if d := fl.descs[firstHit(o)]; d != "" {
		return d
	}
	return "a cache hit"
}

// hitBy names the function holding the earliest cache-hit source in o:
// fn itself for a direct source, or the callee summary's borrower.
func (fl *flowState) hitBy(o *origins, fn *types.Func) *types.Func {
	if by := fl.borrowers[firstHit(o)]; by != nil {
		return by
	}
	return fn
}

// slotDesc names the lowest caller-visible slot in o for a diagnostic.
func (fl *flowState) slotDesc(o *origins) string {
	best := -1
	for s := range o.params {
		if best == -1 || s < best {
			best = s
		}
	}
	if best >= 0 && best < len(fl.slots) && fl.slots[best] != nil {
		return fl.slots[best].Name()
	}
	return "a parameter"
}

// conversionCopies reports whether converting from -> to copies the
// payload (string <-> []byte/[]rune) rather than re-typing the
// reference.
func conversionCopies(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isSlice := func(t types.Type) bool {
		_, ok := t.Underlying().(*types.Slice)
		return ok
	}
	if from == nil || to == nil {
		return false
	}
	return (isStr(from) && isSlice(to)) || (isSlice(from) && isStr(to))
}

// pkgPathIs matches an import path against a package base name so the
// real burstlink/internal packages and the fixture stubs under
// testdata resolve identically (the memokeycheck convention).
func pkgPathIs(path, base string) bool {
	return path == base || strings.HasSuffix(path, "/"+base)
}

// borrowSource recognizes calls whose first result aliases long-lived
// cache-resident memory: memo.Do, Get and Do methods on internal/cache
// and internal/memo types, and sink column accessors. Returns a short
// description for diagnostics.
func borrowSource(info *types.Info, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation Do[T]
		fun = ast.Unparen(ix.X)
	}
	switch x := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[x].(*types.Func); ok && f.Pkg() != nil {
			if f.Name() == "Do" && pkgPathIs(f.Pkg().Path(), "memo") {
				return "memo.Do", true
			}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok {
			f, ok := s.Obj().(*types.Func)
			if !ok || f.Pkg() == nil {
				return "", false
			}
			path := f.Pkg().Path()
			switch {
			case x.Sel.Name == "Get" && (pkgPathIs(path, "cache") || pkgPathIs(path, "memo")):
				return "cache.Get", true
			case x.Sel.Name == "Do" && pkgPathIs(path, "cache"):
				return "cache.Do", true
			case x.Sel.Name == "Floats" && pkgPathIs(path, "sink"):
				return "sink.Floats", true
			}
			return "", false
		}
		if f, ok := info.Uses[x.Sel].(*types.Func); ok && f.Pkg() != nil {
			if f.Name() == "Do" && pkgPathIs(f.Pkg().Path(), "memo") {
				return "memo.Do", true
			}
		}
	}
	return "", false
}

// isMemoizedCall reports whether call is memo.Do or a cache Do method,
// whose last argument is the memoized compute function.
func isMemoizedCall(info *types.Info, call *ast.CallExpr) bool {
	desc, ok := borrowSource(info, call)
	return ok && (desc == "memo.Do" || desc == "cache.Do")
}

// isCachePutCall reports whether call is a Put method on an
// internal/cache or internal/memo type — an insertion of a value the
// cache will retain beyond the call.
func isCachePutCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	f, ok := s.Obj().(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	return pkgPathIs(path, "cache") || pkgPathIs(path, "memo")
}

// isCloneCall recognizes the defensive-copy helpers: slices.Clone,
// maps.Clone, bytes.Clone, strings.Clone.
func isCloneCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Clone" {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "slices", "maps", "bytes", "strings":
		return true
	}
	return false
}

// argsForSlot maps a callee slot (receiver-then-params numbering) back
// to the argument expressions at a call site; a variadic tail slot maps
// to every trailing argument.
func argsForSlot(info *types.Info, call *ast.CallExpr, callee *types.Func, slot int) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		if slot == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, isSel := info.Selections[sel]; isSel {
					return []ast.Expr{sel.X}
				}
			}
			return nil
		}
		slot--
	}
	np := sig.Params().Len()
	if sig.Variadic() && slot == np-1 {
		if slot < len(call.Args) {
			return call.Args[slot:]
		}
		return nil
	}
	if slot >= 0 && slot < len(call.Args) && slot < np {
		return []ast.Expr{call.Args[slot]}
	}
	return nil
}

// writeSite is one statement that writes through an expression's
// memory (rather than rebinding a variable).
type writeSite struct {
	base ast.Expr
	pos  token.Pos
	verb string
}

// collectWriteSites gathers every memory write in body, nested func
// literals included: element/field/pointer stores, copy/clear/delete,
// append (which may grow into a shared backing array), and the
// in-place mutators in sort/slices/math-rand.
func collectWriteSites(info *types.Info, body *ast.BlockStmt) []writeSite {
	var out []writeSite
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if b, verb := writeBase(info, lhs); b != nil {
					out = append(out, writeSite{b, lhs.Pos(), verb})
				}
			}
		case *ast.IncDecStmt:
			if b, verb := writeBase(info, st.X); b != nil {
				out = append(out, writeSite{b, st.X.Pos(), verb})
			}
		case *ast.CallExpr:
			if b, verb := callWrite(info, st); b != nil {
				out = append(out, writeSite{b, st.Pos(), verb})
			}
		}
		return true
	})
	return out
}

// writeBase resolves the expression owning the memory an assignment
// target writes into, or nil when the target is a plain local variable
// (copy semantics — a rebind, not a mutation).
func writeBase(info *types.Info, lhs ast.Expr) (ast.Expr, string) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.StarExpr:
		return x.X, "pointer write"
	case *ast.IndexExpr:
		if t := info.TypeOf(x.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Map:
				return x.X, "map store"
			case *types.Slice, *types.Pointer:
				return x.X, "element write"
			}
		}
		// Array by value: the write lands in whatever owns the array.
		return writeBase(info, x.X)
	case *ast.SelectorExpr:
		if t := info.TypeOf(x.X); t != nil {
			if _, ok := t.Underlying().(*types.Pointer); ok {
				return x.X, "field write"
			}
		}
		return writeBase(info, x.X)
	}
	return nil, ""
}

// callWrite recognizes calls that mutate their first operand.
func callWrite(info *types.Info, call *ast.CallExpr) (ast.Expr, string) {
	if len(call.Args) == 0 {
		return nil, ""
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "copy":
				return call.Args[0], "copy"
			case "clear":
				return call.Args[0], "clear"
			case "delete":
				return call.Args[0], "delete"
			case "append":
				return call.Args[0], "append (which may grow into the shared backing array)"
			}
		}
	case *ast.SelectorExpr:
		path, name := "", fun.Sel.Name
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok && f.Pkg() != nil {
			path = f.Pkg().Path()
		}
		switch path {
		case "sort":
			switch name {
			case "Slice", "SliceStable", "Stable", "Sort", "Ints", "Float64s", "Strings":
				return call.Args[0], "in-place sort"
			}
		case "slices":
			switch name {
			case "Sort", "SortFunc", "SortStableFunc", "Reverse":
				return call.Args[0], "in-place slices." + name
			}
		case "math/rand", "math/rand/v2":
			if name == "Shuffle" {
				return call.Args[0], "in-place shuffle"
			}
		}
	}
	return nil, ""
}
