package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// MemoKeyCheck audits the module's cache keys (internal/memo, DESIGN.md
// §4.9): the delta-simulation segment keys and, through the same
// AppendKey methods, blkd's result-cache request keys. A canonical key
// must be exhaustive over its struct: a field that changes the computed
// result but is left out of AppendKey makes two different inputs hash
// alike, and the cache then serves a stale segment or response body — a
// silent wrong-answer bug no throughput test catches, only a
// bit-identity test that happens to vary the forgotten field.
//
// The check is structural: for every method named AppendKey whose single
// parameter is a *memo.KeyWriter and whose receiver is a struct, each
// receiver field must be read somewhere in the body (a selector on the
// receiver — directly in a writer call, through a nested selector like
// k.Res.Width, or feeding a sort-then-write loop). For collection
// fields (slices, arrays, maps, strings) a bare len(x.Field) read does
// NOT count: writing only the length under-keys the field — two fleet
// device days with equally many but different segments would collide —
// so the elements themselves must be read (ranged over, indexed, or the
// field passed whole). A field that is deliberately excluded (because
// it provably cannot affect the segment's output) belongs in a
// dedicated narrower key struct — the way pipeline.videoKey omits FPS,
// and api.FleetRequest keys its fleet.Population, which has no Stream
// field — or under an explicit //lint:ignore memokeycheck with the proof
// in the reason.
var MemoKeyCheck = &Analyzer{
	Name: "memokeycheck",
	Doc:  "flag AppendKey methods that do not write every receiver field into the canonical segment key",
	Run:  runMemoKeyCheck,
}

func runMemoKeyCheck(pass *Pass) {
	for _, fn := range funcDecls(pass.Files) {
		if fn.Name.Name != "AppendKey" || fn.Recv == nil || !takesKeyWriter(pass, fn) {
			continue
		}
		checkAppendKey(pass, fn)
	}
}

// takesKeyWriter reports whether fn's parameter list is exactly one
// *memo.KeyWriter. The package is matched by import-path suffix so the
// fixture stub under testdata resolves the same way the real
// burstlink/internal/memo does.
func takesKeyWriter(pass *Pass, fn *ast.FuncDecl) bool {
	params := fn.Type.Params
	if params == nil || len(params.List) != 1 || len(params.List[0].Names) > 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(params.List[0].Type)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "KeyWriter" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "memo" || strings.HasSuffix(path, "/memo")
}

// checkAppendKey resolves the receiver struct and reports fields the
// method body never reads off the receiver.
func checkAppendKey(pass *Pass, fn *ast.FuncDecl) {
	recvField := fn.Recv.List[0]
	rt := pass.TypesInfo.TypeOf(recvField.Type)
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	st, ok := rt.Underlying().(*types.Struct)
	if !ok {
		return
	}
	var fields []string
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); name != "_" {
			fields = append(fields, name)
		}
	}
	if len(fields) == 0 {
		return
	}

	// An unnamed (or blank) receiver cannot read any field: everything
	// is unwritten.
	var recvObj types.Object
	if len(recvField.Names) == 1 && recvField.Names[0].Name != "_" {
		recvObj = pass.TypesInfo.Defs[recvField.Names[0]]
	}

	read := make(map[string]bool)
	lenOnly := make(map[string]bool)
	escapes := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// len(recv.Field) is a weak read: it covers the count, not
			// the elements. Record it separately and skip the subtree so
			// the selector below does not register a full read.
			if id, ok := x.Fun.(*ast.Ident); ok && len(x.Args) == 1 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "len" {
					if sel, ok := x.Args[0].(*ast.SelectorExpr); ok {
						if base, ok := sel.X.(*ast.Ident); ok && recvObj != nil && pass.TypesInfo.Uses[base] == recvObj {
							lenOnly[sel.Sel.Name] = true
							return false
						}
					}
				}
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && recvObj != nil && pass.TypesInfo.Uses[id] == recvObj {
				read[x.Sel.Name] = true
				return false // the base identifier is accounted for
			}
		case *ast.Ident:
			// The receiver used bare — passed whole to a helper or
			// re-keyed via w.Sub. Ownership of exhaustiveness moves
			// there; treat every field as covered.
			if recvObj != nil && pass.TypesInfo.Uses[x] == recvObj {
				escapes = true
			}
		}
		return true
	})
	if escapes {
		return
	}

	var missing, lengthed []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" || read[f.Name()] {
			continue
		}
		if lenOnly[f.Name()] {
			// A len-only read suffices for scalars (there is nothing
			// else to key) but under-keys collections.
			if isCollection(f.Type()) {
				lengthed = append(lengthed, f.Name())
			}
			continue
		}
		missing = append(missing, f.Name())
	}
	recvName := types.ExprString(recvField.Type)
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(fn.Name.Pos(), "AppendKey on %s never writes %s into the canonical key; inputs differing only there collide and the segment cache serves stale results", recvName, strings.Join(missing, ", "))
	}
	if len(lengthed) > 0 {
		sort.Strings(lengthed)
		pass.Reportf(fn.Name.Pos(), "AppendKey on %s keys only the length of %s; inputs with equally many but different elements collide — range over the elements or w.Sub each one", recvName, strings.Join(lengthed, ", "))
	}
}

// isCollection reports whether a field type's identity lives in its
// elements, making a len()-only key insufficient.
func isCollection(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}
