package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a throwaway module for Load to chew on.
func writeTestModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const testGoMod = "module tmpmod\n\ngo 1.22\n"

// lintModule loads every package of mod and runs analyzers over them.
func lintModule(t *testing.T, mod string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	pkgs, err := Load(mod, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.PkgPath, terr)
		}
	}
	return RunAnalyzers(pkgs, analyzers)
}

// TestLockOrderAcrossPackages pins the module-global phase: a lock-order
// cycle spanning two packages is reported at both inner acquisitions.
func TestLockOrderAcrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages through go list")
	}
	mod := writeTestModule(t, map[string]string{
		"go.mod":         testGoMod,
		"locks/locks.go": "package locks\n\nimport \"sync\"\n\n// L carries the pair.\ntype L struct {\n\tMuA, MuB sync.Mutex\n\tN int\n}\n\n// AB takes MuA then MuB.\nfunc (l *L) AB() {\n\tl.MuA.Lock()\n\tl.MuB.Lock()\n\tl.N++\n\tl.MuB.Unlock()\n\tl.MuA.Unlock()\n}\n",
		"rev/rev.go":     "package rev\n\nimport \"tmpmod/locks\"\n\n// BA takes MuB then MuA: the reverse order.\nfunc BA(l *locks.L) {\n\tl.MuB.Lock()\n\tl.MuA.Lock()\n\tl.N--\n\tl.MuA.Unlock()\n\tl.MuB.Unlock()\n}\n",
	})
	findings := lintModule(t, mod, LockOrder)
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want the two cycle edges", findings)
	}
	for i, file := range []string{"locks.go", "rev.go"} {
		f := findings[i]
		if f.Analyzer != "lockorder" || !strings.Contains(f.Message, "lock order cycle") || filepath.Base(f.Pos.Filename) != file {
			t.Errorf("finding %d = %+v, want a lock order cycle in %s", i, f, file)
		}
	}
}

// TestNestedModuleSkipped pins the module boundary: a directory below
// the root that holds its own go.mod is another module, so ./... does
// not analyze it, while a sibling package's finding is still reported.
func TestNestedModuleSkipped(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages through go list")
	}
	doubleClose := "\n\nfunc Bad() {\n\tch := make(chan int)\n\tclose(ch)\n\tclose(ch)\n}\n"
	mod := writeTestModule(t, map[string]string{
		"go.mod":           testGoMod,
		"b/b.go":           "package b" + doubleClose,
		"nested/go.mod":    "module nested\n\ngo 1.22\n",
		"nested/nested.go": "package nested" + doubleClose,
		"nested/n/n.go":    "package n" + doubleClose,
	})
	findings := lintModule(t, mod, ChanCheck)
	if len(findings) != 1 || filepath.Base(findings[0].Pos.Filename) != "b.go" {
		t.Fatalf("findings = %v, want only the double close in b", findings)
	}
}

// TestLoadWithoutGo: the standard library comes from the go command's
// export data, so a missing go command fails the load with an error
// naming go list.
func TestLoadWithoutGo(t *testing.T) {
	mod := writeTestModule(t, map[string]string{
		"go.mod": testGoMod,
		"a/a.go": "package a\n\nimport \"sync\"\n\n// Mu is a mutex.\nvar Mu sync.Mutex\n",
	})
	t.Setenv("PATH", t.TempDir())
	_, err := Load(mod, []string{"./..."})
	if err == nil || !strings.Contains(err.Error(), "go list") {
		t.Fatalf("Load with no go on PATH: err = %v, want an error naming go list", err)
	}
}
