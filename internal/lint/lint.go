// Package lint is blklint's analysis engine: a small, stdlib-only
// reimplementation of the go/analysis driver pattern (go/ast + go/types,
// module packages from source and the standard library from the go
// command's export data, no external modules) carrying the domain
// analyzers the BurstLink simulator needs to stay trustworthy:
//
//   - determcheck: no wall-clock reads, global math/rand, or float
//     accumulation in map order — the phase timelines the power model
//     is validated on must be bit-reproducible.
//   - unitcheck: quantities flow as dimensioned types (units.Power,
//     time.Duration, ...), and additive arithmetic never mixes them.
//   - parcheck: all parallelism goes through internal/par.
//   - poolcheck: every sync.Pool.Get is paired with a Put or a handoff.
//   - errdrop: no discarded error returns in simulator code.
//   - memokeycheck: AppendKey writes every receiver field into the
//     segment key, or the cache serves stale results.
//
// The interprocedural layer — CFGs, a static call graph, forward
// dataflow, and one engine that summarizes every module function for
// its callers, callee first to a fixpoint (cfg.go, callgraph.go,
// dataflow.go, summary.go) — carries the rest, each seeing effects any
// number of calls deep:
//
//   - gatecheck: every par.Gate slot is released on all CFG paths.
//   - ctxcheck: service functions propagate their context and observe
//     Done/Err in unbounded loops.
//   - lockcheck: nothing blocks while a sync.Mutex/RWMutex is held.
//   - detflow: map-iteration order never reaches float accumulators or
//     wire-visible output.
//   - aliascheck and purecheck (valueflow.go): cached values are owned
//     at insertion and immutable after every hit, and memoized compute
//     functions are pure.
//   - lockorder: the module-wide lock acquisition-order graph has no
//     cycles (potential deadlocks).
//   - leakcheck: service goroutines cannot block forever, and reach
//     wg.Done on every path.
//   - chancheck: no send on a possibly-closed channel, no double close,
//     no close by a pure receiver.
//
// Findings support //lint:ignore <analyzer> <reason> suppressions on the
// finding's line or the line above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	// Doc is a one-line description shown by blklint -help.
	Doc string
	// Scope reports whether the analyzer applies to a package import
	// path. The test harness bypasses Scope to exercise fixtures.
	Scope func(pkgPath string) bool
	Run   func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string

	// Prog is the module-wide view shared by every pass of one
	// RunAnalyzers call: the interprocedural analyzers reach the call
	// graph, cached CFGs, and function summaries through it.
	Prog *Program

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  msg,
	})
}

// All returns every registered analyzer in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		DetermCheck,
		UnitCheck,
		ParCheck,
		PoolCheck,
		ErrDrop,
		GateCheck,
		CtxCheck,
		LockCheck,
		DetFlow,
		MemoKeyCheck,
		AliasCheck,
		PureCheck,
		LockOrder,
		LeakCheck,
		ChanCheck,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies each analyzer (honoring Scope) to each package,
// then reports the lock-order cycles over every package's acquisition
// edges, and returns the surviving findings after //lint:ignore
// suppression, sorted by position. Fixture packages under a testdata
// directory are loaded by tests only, never by the production driver.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.PkgPath) {
				continue
			}
			a.Run(&Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.PkgPath,
				Prog:      prog,
				findings:  &findings,
			})
		}
	}
	findings = append(findings, lockOrderCycles(prog.lockEdges)...)
	findings = Suppress(findings, pkgs)
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by file, line, column, analyzer.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreRE matches a //lint:ignore directive: analyzer name then a
// non-empty reason. A directive with no reason is not a suppression.
var ignoreRE = regexp.MustCompile(`^lint:ignore\s+(\S+)\s+(\S.*)$`)

// suppressKey identifies one (file, line, analyzer) suppression site.
type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// Suppress filters out findings covered by a //lint:ignore directive on
// the same line or the line immediately above. The directive names one
// analyzer (or "all") and must carry a reason.
func Suppress(findings []Finding, pkgs []*Package) []Finding {
	index := make(map[suppressKey]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					m := ignoreRE.FindStringSubmatch(text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					index[suppressKey{pos.Filename, pos.Line, m[1]}] = true
				}
			}
		}
	}
	if len(index) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			for _, name := range []string{f.Analyzer, "all"} {
				if index[suppressKey{f.Pos.Filename, line, name}] {
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}
