package lint

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one testdata/src package under a
// synthetic import path that satisfies the analyzers' Scope functions.
// The whole testdata/src tree is mapped as a synthetic module so
// fixtures can import each other — in particular the par stub that the
// gatecheck and lockcheck fixtures acquire slots from.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	root := filepath.Join("testdata", "src")
	pkg, err := LoadTree(root, "burstlink/internal", "burstlink/internal/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s type error: %v", name, terr)
	}
	return pkg
}

// wantRE pulls the quoted regexps out of a `// want "..." "..."` comment.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one unmatched // want entry.
type expectation struct {
	line int
	re   *regexp.Regexp
}

// wantsOf collects the // want expectations of a fixture package.
func wantsOf(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, q := range wantRE.FindAllString(rest, -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("bad want pattern %s: %v", q, err)
					}
					wants = append(wants, &expectation{line: line, re: regexp.MustCompile(pat)})
				}
			}
		}
	}
	return wants
}

// checkFixture runs RunAnalyzers (Scope and suppressions included) on the
// fixture and asserts the findings match the // want comments exactly.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	findings := RunAnalyzers([]*Package{pkg}, analyzers)
	wants := wantsOf(t, pkg)

	matched := make([]bool, len(wants))
	for _, f := range findings {
		found := false
		for i, w := range wants {
			if !matched[i] && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding %s:%d: %s: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding at line %d matching %q", w.line, w.re)
		}
	}
}

// TestEveryFixtureRuns fails when a directory under testdata/src holds
// a `// want "…"` line that no test in this package loads by name
// through checkFixture or loadFixture: its expectations would never be
// checked.
func TestEveryFixtureRuns(t *testing.T) {
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(map[string]bool)
	fset := token.NewFileSet()
	for _, name := range tests {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "checkFixture" && fun.Name != "loadFixture" {
				return true
			}
			if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				dir, _ := strconv.Unquote(lit.Value)
				loaded[dir] = true
			}
			return true
		})
	}
	root := filepath.Join("testdata", "src")
	wantLine := regexp.MustCompile(`//\s*want\s+"`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil || !wantLine.Match(src) {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if dir := filepath.ToSlash(rel); err == nil && !loaded[dir] {
			t.Errorf("fixture %s has // want lines but no test loads it; add it to a checkFixture call", dir)
			loaded[dir] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDetermCheckFixture(t *testing.T) {
	checkFixture(t, "determfix", []*Analyzer{DetermCheck})
}

func TestUnitCheckFixture(t *testing.T) {
	checkFixture(t, "unitfix", []*Analyzer{UnitCheck})
}

func TestParCheckFixture(t *testing.T) {
	checkFixture(t, "parfix", []*Analyzer{ParCheck})
}

// TestParCheckAllowlist drives the allowfix fixture, which lives at
// burstlink/internal/server/allowfix — inside the parcheck allowlist.
// Through RunAnalyzers (Scope honored) the goroutine primitives inside
// must produce zero findings and the fixture carries zero // want
// comments; bypassing Scope must surface all three raw findings, proving
// it is the allowlist doing the suppressing and not a blind spot.
func TestParCheckAllowlist(t *testing.T) {
	checkFixture(t, "server/allowfix", []*Analyzer{ParCheck})

	pkg := loadFixture(t, "server/allowfix")
	var raw []Finding
	pass := &Pass{Analyzer: ParCheck, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info, PkgPath: pkg.PkgPath, findings: &raw}
	ParCheck.Run(pass)
	// Two go statements, one WaitGroup, one channel construction.
	if len(raw) != 4 {
		t.Fatalf("scope-bypassed findings = %d, want 4: %v", len(raw), raw)
	}
}

func TestPoolCheckFixture(t *testing.T) {
	checkFixture(t, "poolfix", []*Analyzer{PoolCheck})
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, "errdropfix", []*Analyzer{ErrDrop})
}

func TestGateCheckFixture(t *testing.T) {
	checkFixture(t, "gatefix", []*Analyzer{GateCheck})
}

func TestCtxCheckFixture(t *testing.T) {
	checkFixture(t, "exp/ctxfix", []*Analyzer{CtxCheck})
}

func TestLockCheckFixture(t *testing.T) {
	checkFixture(t, "lockfix", []*Analyzer{LockCheck})
}

func TestDetFlowFixture(t *testing.T) {
	checkFixture(t, "detflowfix", []*Analyzer{DetFlow})
}

func TestMemoKeyCheckFixture(t *testing.T) {
	checkFixture(t, "memofix", []*Analyzer{MemoKeyCheck})
}

// TestAliasCheckFixture drives the value-flow layer end to end: direct
// hit mutation, mutation through borrow and mutation summaries one to
// three calls deep and through recursion, insertions aliasing caller
// memory, and the defensive-copy and fresh-reader idioms that must stay
// clean.
func TestAliasCheckFixture(t *testing.T) {
	checkFixture(t, "aliasfix", []*Analyzer{AliasCheck})
}

// TestPureCheckFixture pins purecheck's impurity families: clock/rand/
// os (directly and through callee summaries one to three calls deep and
// through recursion), mutable package state, caller-visible writes, and
// root extension through once-bound local literals.
func TestPureCheckFixture(t *testing.T) {
	checkFixture(t, "purefix", []*Analyzer{PureCheck})
}

// TestFleetFixFixture pins memokeycheck against the fleet device-key
// shape: length-prefix-plus-range coverage of a segment slice passes,
// len()-only keying of a collection field fires.
func TestFleetFixFixture(t *testing.T) {
	checkFixture(t, "fleetfix", []*Analyzer{MemoKeyCheck})
}

// TestLockOrderFixture drives the acquisition-order graph end to end:
// consistent nesting and disjoint critical sections stay clean; a
// reversed pair is reported at both inner acquisition sites, directly
// and through helpers one to three calls deep and through recursion;
// re-acquiring a held mutex is the one-node cycle, and hand-over-hand
// locking of two instances of one type is reported with its own message.
func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorderfix", []*Analyzer{LockOrder})
	checkFixture(t, "handoverfix", []*Analyzer{LockOrder})
}

// TestLeakCheckFixture lives at burstlink/internal/server/leakfix —
// inside leakcheck's scope. The ok cases pin the service idioms
// (buffered cap-1 result channel, select with ctx.Done(), close-signal
// field, deferred wg.Done, caller-owned parameter channels).
func TestLeakCheckFixture(t *testing.T) {
	checkFixture(t, "server/leakfix", []*Analyzer{LeakCheck})
}

// TestChanCheckFixture runs chancheck together with lockcheck: the
// unbuffered-send-under-lock rule is lockcheck's, per the channel
// discipline split documented on ChanCheck.
func TestChanCheckFixture(t *testing.T) {
	checkFixture(t, "chanfix", []*Analyzer{ChanCheck, LockCheck})
}

// TestIgnoreDirectives drives the full pipeline over the ignorefix
// package: three suppressed sites must vanish, and the malformed or
// mis-targeted directives must leave their findings standing.
func TestIgnoreDirectives(t *testing.T) {
	checkFixture(t, "ignorefix", []*Analyzer{DetermCheck})

	// Without suppression the package has 5 findings; with it, 2.
	pkg := loadFixture(t, "ignorefix")
	var raw []Finding
	pass := &Pass{Analyzer: DetermCheck, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info, PkgPath: pkg.PkgPath, findings: &raw}
	DetermCheck.Run(pass)
	if len(raw) != 5 {
		t.Fatalf("raw findings = %d, want 5", len(raw))
	}
	if got := Suppress(raw, []*Package{pkg}); len(got) != 2 {
		t.Fatalf("suppressed findings = %d, want 2", len(got))
	}
}

// TestJSONGolden pins the -json schema against testdata/golden.json.
// Set UPDATE_GOLDEN=1 to regenerate.
func TestJSONGolden(t *testing.T) {
	pkg := loadFixture(t, "jsonfix")
	findings := RunAnalyzers([]*Package{pkg}, All())
	for i := range findings {
		findings[i].Pos.Filename = filepath.ToSlash(filepath.Base(findings[i].Pos.Filename))
	}
	got, err := json.MarshalIndent(Report(findings), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("-json output drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSARIFGolden pins the -sarif schema — ruleId, level, and
// physicalLocation must stay exactly as SARIF 2.1.0 consumers expect —
// against testdata/golden.sarif. Set UPDATE_GOLDEN=1 to regenerate.
func TestSARIFGolden(t *testing.T) {
	pkg := loadFixture(t, "jsonfix")
	findings := RunAnalyzers([]*Package{pkg}, All())
	if len(findings) == 0 {
		t.Fatal("jsonfix produced no findings; the SARIF golden needs results to pin")
	}
	for i := range findings {
		findings[i].Pos.Filename = filepath.ToSlash(filepath.Base(findings[i].Pos.Filename))
	}
	got, err := json.MarshalIndent(SARIFReport(findings, All(), ""), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "golden.sarif")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("-sarif output drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Structural invariants, independent of the golden bytes.
	log := SARIFReport(findings, All(), "")
	if log.Version != "2.1.0" {
		t.Errorf("sarif version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("sarif runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if got, want := len(run.Results), len(findings); got != want {
		t.Errorf("sarif results = %d, want %d", got, want)
	}
	if got, want := len(run.Tool.Driver.Rules), len(All()); got != want {
		t.Errorf("sarif rules = %d, want %d (one per analyzer)", got, want)
	}
	for _, r := range run.Results {
		if r.Level != "error" {
			t.Errorf("result level = %q, want error", r.Level)
		}
		if r.RuleID != run.Tool.Driver.Rules[r.RuleIndex].ID {
			t.Errorf("ruleIndex %d does not point at ruleId %s", r.RuleIndex, r.RuleID)
		}
		if len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result %s missing its physicalLocation", r.RuleID)
		}
	}
}

// TestReportEmpty pins the zero-finding JSON shape: findings must be an
// empty array, never null.
func TestReportEmpty(t *testing.T) {
	b, err := json.Marshal(Report(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `{"count":0,"findings":[]}`; got != want {
		t.Errorf("empty report = %s, want %s", got, want)
	}
}

// TestScopes verifies each analyzer's package scoping: where the
// simulator invariants apply and where they deliberately do not.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkgPath  string
		want     bool
	}{
		{DetermCheck, "burstlink/internal/codec", true},
		{DetermCheck, "burstlink/cmd/blkv", false},
		{UnitCheck, "burstlink/internal/vd", true},
		{UnitCheck, "burstlink/internal/units", false},
		{ParCheck, "burstlink/internal/par", false},
		{ParCheck, "burstlink/internal/server", false},
		{ParCheck, "burstlink/internal/server/allowfix", false},
		{ParCheck, "burstlink/internal/serverextra", true},
		{ParCheck, "burstlink/internal/exp", true},
		{ParCheck, "burstlink/internal/api", true},
		{ParCheck, "burstlink/internal/cache", false},
		{ParCheck, "burstlink/internal/memo", true},
		{ParCheck, "burstlink/cmd/burstlink", true},
		{ParCheck, "burstlink/cmd/blkd", true},
		{ParCheck, "burstlink/cmd/blkload", true},
		{ErrDrop, "burstlink/internal/trace", true},
		{ErrDrop, "burstlink/cmd/blkv", false},
		{CtxCheck, "burstlink/internal/server", true},
		{CtxCheck, "burstlink/internal/api", true},
		{CtxCheck, "burstlink/internal/exp", true},
		// internal/cluster is ctx-scoped like the rest of the service
		// surface, but NOT parcheck-allowlisted: the router is a pure
		// http.Handler with no goroutines of its own.
		{CtxCheck, "burstlink/internal/cluster", true},
		{ParCheck, "burstlink/internal/cluster", true},
		{CtxCheck, "burstlink/internal/exp/ctxfix", true},
		{CtxCheck, "burstlink/internal/codec", false},
		{CtxCheck, "burstlink/cmd/burstlink", false},
		{DetFlow, "burstlink/internal/exp", true},
		{DetFlow, "burstlink/cmd/blkv", false},
		{LeakCheck, "burstlink/internal/server", true},
		{LeakCheck, "burstlink/internal/server/leakfix", true},
		{LeakCheck, "burstlink/internal/cluster", true},
		{LeakCheck, "burstlink/internal/par", true},
		{LeakCheck, "burstlink/internal/memo", true},
		{LeakCheck, "burstlink/internal/codec", false},
		{LeakCheck, "burstlink/cmd/blkd", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Scope(c.pkgPath); got != c.want {
			t.Errorf("%s.Scope(%s) = %v, want %v", c.analyzer.Name, c.pkgPath, got, c.want)
		}
	}
	if PoolCheck.Scope != nil {
		t.Error("poolcheck should apply everywhere (nil Scope)")
	}
	if GateCheck.Scope != nil {
		t.Error("gatecheck should apply everywhere (nil Scope)")
	}
	if LockCheck.Scope != nil {
		t.Error("lockcheck should apply everywhere (nil Scope)")
	}
	if LockOrder.Scope != nil {
		t.Error("lockorder should apply everywhere (nil Scope)")
	}
	if ChanCheck.Scope != nil {
		t.Error("chancheck should apply everywhere (nil Scope)")
	}
}

// TestLoadModule smoke-tests the module loader against the real tree:
// pattern expansion, import-path mapping, and type-checking through the
// module-internal importer.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("module load runs go list for the standard library's export data")
	}
	pkgs, err := Load(".", []string{"./internal/par", "./internal/units"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: type errors: %v", pkg.PkgPath, pkg.TypeErrors)
		}
	}
	findings := RunAnalyzers(pkgs, All())
	if len(findings) != 0 {
		t.Errorf("par+units should lint clean, got %d findings", len(findings))
	}
}
