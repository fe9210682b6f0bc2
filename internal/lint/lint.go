// Package lint is blklint's analysis engine: a small, stdlib-only
// reimplementation of the go/analysis driver pattern (go/ast + go/types,
// module packages from source and the standard library from the go
// command's export data, no external modules) carrying the domain
// analyzers the BurstLink simulator needs to stay trustworthy:
//
//   - determcheck: the simulator must be a pure function of its inputs.
//     Wall-clock reads, the global math/rand source, and float
//     accumulation in map-iteration order all silently break the
//     bit-reproducible phase timelines the power model is validated on.
//   - unitcheck: quantities must flow as dimensioned types (units.Power,
//     units.ByteSize, time.Duration, ...) rather than bare float64/int,
//     and additive arithmetic must not mix dimensions.
//   - parcheck: all parallelism goes through internal/par, so panics
//     propagate and SetWorkers(1) degrades every kernel to a serial loop.
//   - poolcheck: sync.Pool.Get must be paired with a Put or hand the
//     buffer to the caller; a leaked Get silently disables reuse.
//   - errdrop: discarded error returns in simulator code hide broken
//     bitstreams and truncated traces.
//   - memokeycheck: delta-simulation AppendKey methods must write every
//     receiver field into the canonical segment key, or the segment
//     cache silently serves stale results for inputs that differ only in
//     the forgotten field.
//
// The interprocedural layer (CFG builder, static call graph, forward
// dataflow framework — see cfg.go, callgraph.go, dataflow.go) carries
// four more analyzers:
//
//   - gatecheck: every par.Gate slot acquired must be released on all
//     CFG paths, error returns and panics included.
//   - ctxcheck: ctx-receiving service functions must propagate their
//     context and observe Done/Err in unbounded loops.
//   - lockcheck: no channel op, network call, or Gate.Acquire while a
//     sync.Mutex/RWMutex is held (one call level deep).
//   - detflow: map-iteration order must not reach float accumulators or
//     wire-visible output, even through one helper-function hop.
//
// The value-flow layer (valueflow.go — per-function alias-origin
// analysis with interprocedural mutation/alias/borrow summaries) adds
// the cache-integrity pair:
//
//   - aliascheck: memory obtained from a cache hit is shared and
//     immutable; values inserted into a cache must not alias
//     caller-owned buffers.
//   - purecheck: memoized compute functions must be pure — no
//     clock/rand/os, no mutable package state, no caller-visible
//     writes — to one summarized call level.
//
// The concurrency-soundness layer (lockorder.go, leakcheck.go,
// chancheck.go) guards the liveness properties the race detector cannot
// see:
//
//   - lockorder: a module-wide mutex acquisition-order graph (edges
//     recorded when one lock is taken while another is held, one call
//     level deep) whose cycles, self-loops included, are potential
//     deadlocks.
//   - leakcheck: goroutines spawned in the service packages must not be
//     able to block forever on a channel op or Gate.Acquire without a
//     ctx.Done()/close-signal escape, and wg.Done must be reached on
//     every goroutine path.
//   - chancheck: channel discipline — no send on a possibly-closed
//     channel, no double close, no close by a pure receiver.
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
