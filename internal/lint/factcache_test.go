package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTestModule lays out a throwaway module for RunCached to chew on.
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

const factTestGoMod = "module tmpmod\n\ngo 1.22\n"

// TestFactCacheWarmRun pins the cache lifecycle: a cold run analyzes
// everything, a warm run serves everything from cache with identical
// findings, editing a leaf re-analyzes only that package, and editing a
// dependency invalidates its dependents through the fact-hash chain.
func TestFactCacheWarmRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages from source")
	}
	mod := writeTestModule(t, map[string]string{
		"go.mod": factTestGoMod,
		"a/a.go": "package a\n\n// Version is exported for b.\nconst Version = 1\n",
		"b/b.go": "package b\n\nimport \"tmpmod/a\"\n\nfunc Bad() int {\n\tch := make(chan int)\n\tclose(ch)\n\tclose(ch)\n\treturn a.Version\n}\n",
	})
	cacheDir := filepath.Join(mod, ".blklint-cache")
	analyzers := []*Analyzer{ChanCheck}

	cold, coldStats, err := RunCached(mod, cacheDir, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Cached != 0 || coldStats.Analyzed != 2 || coldStats.Packages != 2 {
		t.Fatalf("cold stats = %+v, want 0 cached / 2 analyzed of 2", coldStats)
	}
	if len(cold) != 1 || !strings.Contains(cold[0].Message, "double close") {
		t.Fatalf("cold findings = %v, want the one double-close in b", cold)
	}

	warm, warmStats, err := RunCached(mod, cacheDir, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Cached != 2 || warmStats.Analyzed != 0 || warmStats.Loaded != 0 {
		t.Fatalf("warm stats = %+v, want 2 cached / 0 analyzed / 0 loaded", warmStats)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm findings diverge from cold:\ncold: %v\nwarm: %v", cold, warm)
	}

	// Editing the leaf re-analyzes only the leaf.
	if err := os.WriteFile(filepath.Join(mod, "b", "b.go"),
		[]byte("package b\n\nimport \"tmpmod/a\"\n\nfunc Fine() int { return a.Version }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fixed, leafStats, err := RunCached(mod, cacheDir, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if leafStats.Cached != 1 || leafStats.Analyzed != 1 {
		t.Fatalf("leaf-edit stats = %+v, want 1 cached / 1 analyzed", leafStats)
	}
	if len(fixed) != 0 {
		t.Fatalf("leaf-edit findings = %v, want none after the fix", fixed)
	}

	// Editing the dependency invalidates the dependent too.
	if err := os.WriteFile(filepath.Join(mod, "a", "a.go"),
		[]byte("package a\n\n// Version is exported for b.\nconst Version = 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, depStats, err := RunCached(mod, cacheDir, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if depStats.Cached != 0 || depStats.Analyzed != 2 {
		t.Fatalf("dep-edit stats = %+v, want 0 cached / 2 analyzed (hash chain invalidates dependents)", depStats)
	}
}

// TestFactCacheLockOrderAcrossPackages pins the module-global phase on a
// fully warm cache: a lock-order cycle spanning two packages must still
// be reported when both packages' edges come from serialized facts and
// nothing is loaded at all.
func TestFactCacheLockOrderAcrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages from source")
	}
	mod := writeTestModule(t, map[string]string{
		"go.mod":         factTestGoMod,
		"locks/locks.go": "package locks\n\nimport \"sync\"\n\n// L carries the pair.\ntype L struct {\n\tMuA, MuB sync.Mutex\n\tN int\n}\n\n// AB takes MuA then MuB.\nfunc (l *L) AB() {\n\tl.MuA.Lock()\n\tl.MuB.Lock()\n\tl.N++\n\tl.MuB.Unlock()\n\tl.MuA.Unlock()\n}\n",
		"rev/rev.go":     "package rev\n\nimport \"tmpmod/locks\"\n\n// BA takes MuB then MuA: the reverse order.\nfunc BA(l *locks.L) {\n\tl.MuB.Lock()\n\tl.MuA.Lock()\n\tl.N--\n\tl.MuA.Unlock()\n\tl.MuB.Unlock()\n}\n",
	})
	cacheDir := filepath.Join(mod, ".blklint-cache")
	analyzers := []*Analyzer{LockOrder}

	cold, coldStats, err := RunCached(mod, cacheDir, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Analyzed != 2 {
		t.Fatalf("cold stats = %+v, want 2 analyzed", coldStats)
	}
	if len(cold) != 2 {
		t.Fatalf("cold findings = %v, want the two cycle edges", cold)
	}
	for _, f := range cold {
		if f.Analyzer != "lockorder" || !strings.Contains(f.Message, "lock order cycle") {
			t.Fatalf("unexpected finding: %+v", f)
		}
	}

	warm, warmStats, err := RunCached(mod, cacheDir, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Cached != 2 || warmStats.Loaded != 0 {
		t.Fatalf("warm stats = %+v, want 2 cached / 0 loaded", warmStats)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cycle findings must survive the cache round-trip:\ncold: %v\nwarm: %v", cold, warm)
	}
}

// TestNestedModuleSkipped pins the module boundary: a directory below
// the root that holds its own go.mod is another module, so neither
// ./... nor -changed analyzes it, while a sibling package's finding is
// still reported.
func TestNestedModuleSkipped(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages from source")
	}
	doubleClose := "\n\nfunc Bad() {\n\tch := make(chan int)\n\tclose(ch)\n\tclose(ch)\n}\n"
	mod := writeTestModule(t, map[string]string{
		"go.mod":           factTestGoMod,
		"b/b.go":           "package b" + doubleClose,
		"nested/go.mod":    "module nested\n\ngo 1.22\n",
		"nested/nested.go": "package nested" + doubleClose,
		"nested/n/n.go":    "package n" + doubleClose,
	})
	findings, _, err := RunCached(mod, t.TempDir(), []string{"./..."}, []*Analyzer{ChanCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || filepath.Base(findings[0].Pos.Filename) != "b.go" {
		t.Fatalf("findings = %v, want only the double close in b", findings)
	}

	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not available for the -changed half")
	}
	for _, args := range [][]string{{"init", "-q"}, {"commit", "-q", "--allow-empty", "-m", "base"}} {
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = mod
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	patterns, err := ChangedPatterns(mod, "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(patterns, []string{"./b"}) {
		t.Fatalf("changed patterns = %v, want [./b]", patterns)
	}
}

// TestFactCacheRejectsTornEntries: a corrupt or mismatched entry is a
// cache miss, never wrong findings.
func TestFactCacheRejectsTornEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages from source")
	}
	mod := writeTestModule(t, map[string]string{
		"go.mod": factTestGoMod,
		"a/a.go": "package a\n\n// N is a number.\nconst N = 1\n",
	})
	cacheDir := filepath.Join(mod, ".blklint-cache")
	if _, stats, err := RunCached(mod, cacheDir, []string{"./..."}, All()); err != nil || stats.Analyzed != 1 {
		t.Fatalf("seed run: stats=%+v err=%v", stats, err)
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v (err %v), want exactly 1", entries, err)
	}
	if err := os.WriteFile(filepath.Join(cacheDir, entries[0].Name()), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunCached(mod, cacheDir, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cached != 0 || stats.Analyzed != 1 {
		t.Fatalf("torn-entry stats = %+v, want a miss and a fresh analysis", stats)
	}
}
