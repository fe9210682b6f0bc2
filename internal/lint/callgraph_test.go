package lint

import (
	"go/types"
	"strings"
	"testing"
)

// findNode looks a function up in the graph by name.
func findNode(t *testing.T, g *CallGraph, name string) *CallNode {
	t.Helper()
	for fn, node := range g.Nodes {
		if fn.Name() == name {
			return node
		}
	}
	t.Fatalf("function %s not in call graph", name)
	return nil
}

// TestCallGraphEdges builds the graph over the gatefix fixture and
// checks the direct-call edges the gatecheck summaries depend on.
func TestCallGraphEdges(t *testing.T) {
	pkg := loadFixture(t, "gatefix")
	g := BuildCallGraph([]*Package{pkg})

	caller := findNode(t, g, "okHelperRelease")
	helper := findNode(t, g, "releaseGate")

	callsHelper := false
	for _, site := range caller.Callees {
		if site.Callee == helper {
			callsHelper = true
			if site.Call == nil {
				t.Error("call site missing its CallExpr")
			}
		}
	}
	if !callsHelper {
		t.Error("edge okHelperRelease -> releaseGate missing")
	}
}

// TestCallGraphMethodEdges checks method-call resolution through
// types.Selections on the lockfix fixture.
func TestCallGraphMethodEdges(t *testing.T) {
	pkg := loadFixture(t, "lockfix")
	g := BuildCallGraph([]*Package{pkg})

	caller := findNode(t, g, "badBlockingHelperUnderLock")
	helper := findNode(t, g, "recvForever")
	found := false
	for _, site := range caller.Callees {
		if site.Callee == helper {
			found = true
		}
	}
	if !found {
		t.Error("edge badBlockingHelperUnderLock -> recvForever missing")
	}

	// Methods appear as graph nodes of their own.
	if n := findNode(t, g, "okLockAroundCompute"); n.Decl == nil {
		t.Error("method node missing its declaration")
	}
}

// TestCallGraphSkipsDynamicCalls pins the documented soundness limit:
// calls through function values do not produce edges.
func TestCallGraphSkipsDynamicCalls(t *testing.T) {
	pkg := loadFixture(t, "gatefix")
	g := BuildCallGraph([]*Package{pkg})
	// Gate methods live outside the fixture package, so no fixture node
	// may list an edge to them — StaticCallee resolves them, but the
	// graph only holds declared-in-module targets.
	for fn, node := range g.Nodes {
		for _, site := range node.Callees {
			callee := site.Callee.Fn
			if callee.Pkg() != nil && strings.HasSuffix(callee.Pkg().Path(), "/par") {
				t.Errorf("%s has an edge into the par stub (%s); graph must only hold fixture decls", fn.Name(), callee.Name())
			}
		}
	}
}

// TestStaticCallee covers the three resolution shapes on real fixture
// type info: plain call, method call, and (negatively) a builtin.
func TestStaticCallee(t *testing.T) {
	pkg := loadFixture(t, "detflowfix")
	prog := NewProgram([]*Package{pkg})
	g := prog.CallGraph()
	caller := findNode(t, g, "badSumThroughHelper")
	resolved := false
	for _, site := range caller.Callees {
		if site.Callee.Fn.Name() == "valuesOf" {
			resolved = true
			if _, ok := site.Callee.Fn.Type().(*types.Signature); !ok {
				t.Error("resolved callee is not a function signature")
			}
		}
	}
	if !resolved {
		t.Error("StaticCallee failed to resolve valuesOf from badSumThroughHelper")
	}
}
