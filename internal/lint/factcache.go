package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is blklint's incremental fact cache. The tool's wall time is
// mostly package loading (parse + type-check from source:
// BenchmarkAnalyzers' `load` row against its `all` row), so the way to
// make module-wide lint cheap enough for every save is to skip loading,
// not just analysis, for unchanged packages; its `warm` row times a
// no-op re-lint.
//
// The unit of caching is one package's facts: its post-suppression
// findings and its lock-order edges (the only analyzer output that
// feeds a module-global phase). Both are pure functions of the
// package's own sources plus its module-internal dependencies — the
// interprocedural analyzers reach exactly one call level, and a callee
// is only visible if its package is imported — so the cache key is a
// content hash of the package's files combined with the fact hashes of
// its dependencies, computed bottom-up over the import DAG from an
// imports-only parse (no type checking). Any edit invalidates the
// package and its transitive dependents and nothing else.
//
// Warm runs therefore load only the stale packages (plus their
// dependency closures, which type-checking needs anyway), analyze just
// the stale ones, merge the cached findings and edges of the rest, and
// re-run lock-order cycle detection over the union — cycles can span a
// cached and a fresh package, so they are recomputed every run and
// never stored.
//
// Known approximations, accepted by design: //lint:ignore directives in
// a cached (unloaded) package cannot suppress a fresh lock-order cycle
// finding, and leakcheck's close-signal set only spans the packages
// loaded this run — a close in a package outside a stale package's
// dependency closure is invisible to it. Both need a cross-package
// coupling the import graph does not express; a cold run (-cache off or
// an empty cache dir) has neither limit. The analyzer set and a schema
// version participate in the key, and check.sh drops the cache whenever
// blklint's own sources change.

// factCacheVersion invalidates every entry when the serialized shape
// changes.
const factCacheVersion = 1

// PackageFacts is one package's serialized analysis output.
type PackageFacts struct {
	Version   int        `json:"version"`
	FactHash  string     `json:"fact_hash"`
	PkgPath   string     `json:"pkg_path"`
	Findings  []Finding  `json:"findings"`
	LockEdges []LockEdge `json:"lock_edges"`
}

// CacheStats summarizes one RunCached call.
type CacheStats struct {
	// Packages selected by the patterns.
	Packages int
	// Cached packages served entirely from the fact cache.
	Cached int
	// Analyzed packages loaded and analyzed fresh.
	Analyzed int
	// Loaded counts every package parsed and type-checked this run (the
	// stale set plus its dependency closure).
	Loaded int
}

// RunCached is the fact-cache twin of Load+RunAnalyzers: it hashes every
// selected package, serves unchanged ones from cacheDir, loads and
// analyzes only the stale ones, writes their facts back, and appends the
// module-global lock-order cycle findings over the union of cached and
// fresh edges.
func RunCached(dir, cacheDir string, patterns []string, analyzers []*Analyzer) ([]Finding, CacheStats, error) {
	var stats CacheStats
	modRoot, err := FindModuleRoot(dir)
	if err != nil {
		return nil, stats, err
	}
	modPath, err := modulePath(modRoot)
	if err != nil {
		return nil, stats, err
	}
	ld := newLoader(modRoot, modPath)
	if err := ld.discover(); err != nil {
		return nil, stats, err
	}
	want, err := ld.match(patterns)
	if err != nil {
		return nil, stats, err
	}
	stats.Packages = len(want)
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, stats, err
	}

	idx := newFactIndex(ld, analyzers)
	var findings []Finding
	var edges []LockEdge
	var stale []string
	hashes := make(map[string]string, len(want))
	for _, path := range want {
		h, err := idx.factHash(path)
		if err != nil {
			return nil, stats, fmt.Errorf("lint: hashing %s: %w", path, err)
		}
		hashes[path] = h
		if facts, ok := readFacts(cacheDir, h, path); ok {
			stats.Cached++
			findings = append(findings, facts.Findings...)
			edges = append(edges, facts.LockEdges...)
			continue
		}
		stale = append(stale, path)
	}

	var loaded []*Package
	if len(stale) > 0 {
		var pkgs []*Package
		for _, path := range stale {
			pkg, err := ld.load(path)
			if err != nil {
				return nil, stats, fmt.Errorf("lint: loading %s: %w", path, err)
			}
			pkgs = append(pkgs, pkg)
		}
		loaded = ld.allLoaded()
		prog := NewProgram(loaded)
		for _, pkg := range pkgs {
			fs := analyzePackage(prog, pkg, analyzers)
			pkgEdges := prog.LockEdgesOf(pkg.PkgPath)
			if err := writeFacts(cacheDir, PackageFacts{
				Version:   factCacheVersion,
				FactHash:  hashes[pkg.PkgPath],
				PkgPath:   pkg.PkgPath,
				Findings:  fs,
				LockEdges: pkgEdges,
			}); err != nil {
				return nil, stats, fmt.Errorf("lint: writing facts for %s: %w", pkg.PkgPath, err)
			}
			stats.Analyzed++
			findings = append(findings, fs...)
			edges = append(edges, pkgEdges...)
		}
	}
	stats.Loaded = len(ld.loaded)

	if hasAnalyzer(analyzers, LockOrder) {
		findings = append(findings, Suppress(LockOrderCycles(edges), loaded)...)
	}
	SortFindings(findings)
	return findings, stats, nil
}

// allLoaded returns every package the loader has parsed and
// type-checked, sorted by import path — the stale set plus the
// dependency closure the module importer pulled in.
func (ld *loader) allLoaded() []*Package {
	paths := make([]string, 0, len(ld.loaded))
	for path := range ld.loaded {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, ld.loaded[path])
	}
	return out
}

// factIndex computes per-package fact hashes bottom-up over the import
// DAG using an imports-only parse — no type checking, so hashing the
// whole module costs milliseconds.
type factIndex struct {
	ld *loader
	// salt folds the schema version and the analyzer set (names and
	// docs, so a behavior-describing doc change rolls the key) into
	// every hash.
	salt     string
	hashes   map[string]string
	visiting map[string]bool
}

func newFactIndex(ld *loader, analyzers []*Analyzer) *factIndex {
	var b strings.Builder
	fmt.Fprintf(&b, "blklint fact cache v%d\n", factCacheVersion)
	for _, a := range analyzers {
		fmt.Fprintf(&b, "%s: %s\n", a.Name, a.Doc)
	}
	return &factIndex{
		ld:       ld,
		salt:     b.String(),
		hashes:   make(map[string]string),
		visiting: make(map[string]bool),
	}
}

// factHash returns the cache key for one package: content hash of its
// non-test sources plus the fact hashes of its module-internal imports.
func (x *factIndex) factHash(path string) (string, error) {
	if h, ok := x.hashes[path]; ok {
		return h, nil
	}
	if x.visiting[path] {
		return "", fmt.Errorf("import cycle through %s", path)
	}
	x.visiting[path] = true
	defer delete(x.visiting, path)

	dir, ok := x.ld.dirs[path]
	if !ok {
		return "", fmt.Errorf("unknown package %s", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var payload strings.Builder
	payload.WriteString(x.salt)
	payload.WriteString(path + "\n")
	depSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(src)
		fmt.Fprintf(&payload, "file %s %s\n", e.Name(), hex.EncodeToString(sum[:]))
		f, err := parser.ParseFile(token.NewFileSet(), e.Name(), src, parser.ImportsOnly)
		if err != nil {
			// A syntactically-broken file still contributes its content
			// hash; the load step will surface the real error.
			continue
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if _, internal := x.ld.dirs[p]; internal {
				depSet[p] = true
			}
		}
	}
	deps := make([]string, 0, len(depSet))
	for d := range depSet {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	for _, d := range deps {
		dh, err := x.factHash(d)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&payload, "dep %s %s\n", d, dh)
	}
	digest := sha256.Sum256([]byte(payload.String()))
	sum := hex.EncodeToString(digest[:])
	x.hashes[path] = sum
	return sum, nil
}

// readFacts loads a cache entry by hash, validating version and path so
// a (vanishingly unlikely) hash collision or schema drift degrades to a
// cache miss, never to wrong findings.
func readFacts(cacheDir, hash, pkgPath string) (PackageFacts, bool) {
	var facts PackageFacts
	data, err := os.ReadFile(factsPath(cacheDir, hash))
	if err != nil {
		return facts, false
	}
	if err := json.Unmarshal(data, &facts); err != nil {
		return facts, false
	}
	if facts.Version != factCacheVersion || facts.FactHash != hash || facts.PkgPath != pkgPath {
		return facts, false
	}
	return facts, true
}

// writeFacts persists one package's facts atomically (write + rename),
// so a crashed run never leaves a torn entry for readFacts to reject.
func writeFacts(cacheDir string, facts PackageFacts) error {
	data, err := json.Marshal(facts)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(cacheDir, "facts-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()           // best-effort cleanup; the write error wins
		_ = os.Remove(tmp.Name()) // ditto
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the close error wins
		return err
	}
	return os.Rename(tmp.Name(), factsPath(cacheDir, facts.FactHash))
}

func factsPath(cacheDir, hash string) string {
	return filepath.Join(cacheDir, hash+".json")
}
