package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors holds non-fatal type-check problems; analyses still run
	// on whatever was resolved.
	TypeErrors []error
}

// loader parses and type-checks module packages on demand, resolving
// module-internal imports from source and everything else (the standard
// library) from the compiler's export data.
type loader struct {
	fset     *token.FileSet
	modRoot  string
	modPath  string
	dirs     map[string]string // import path -> directory
	loaded   map[string]*Package
	loading  map[string]bool // cycle guard
	external types.Importer
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod.
func modulePath(modRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", modRoot)
}

// Load parses and type-checks the packages selected by patterns, rooted
// at the module containing dir. Patterns are "./..." (every package in
// the module) or directory paths relative to the module root, optionally
// ending in "/...". Test files and testdata directories are skipped: the
// analyzers guard simulator code, and tests legitimately use wall clocks
// and raw goroutines.
func Load(dir string, patterns []string) ([]*Package, error) {
	modRoot, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(modRoot)
	if err != nil {
		return nil, err
	}
	ld, err := newLoader(modRoot, modPath)
	if err != nil {
		return nil, err
	}
	want, err := ld.match(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range want {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadTree maps every package directory under root as modPath/<rel> and
// loads pkgPath from that synthetic module — the fixture entry point
// that lets testdata packages import each other (e.g. the stub
// burstlink/internal/par the gatecheck fixtures acquire slots from).
// Its callers are the want-fixture tests.
func LoadTree(root, modPath, pkgPath string) (*Package, error) {
	ld, err := newLoader(root, modPath)
	if err != nil {
		return nil, err
	}
	return ld.load(pkgPath)
}

// newLoader maps every package under modRoot and locates the export
// data of everything they import from outside the module.
func newLoader(modRoot, modPath string) (*loader, error) {
	ld := &loader{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		dirs:    make(map[string]string),
		loaded:  make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if err := ld.discover(); err != nil {
		return nil, err
	}
	exports, err := ld.listExports()
	if err != nil {
		return nil, err
	}
	ld.external = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return ld, nil
}

// listExports asks one go list for the export data files of every
// package the module imports from outside itself, compiling those the
// build cache lacks. The build context (GOOS, GOARCH, CGO_ENABLED, tags
// in GOFLAGS) comes from the environment.
func (ld *loader) listExports() (map[string]string, error) {
	paths, err := ld.externalImports()
	if err != nil || len(paths) == 0 {
		return nil, err
	}
	args := append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = ld.modRoot
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%w: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("lint: go list -export: %w", err)
	}
	exports := make(map[string]string, len(paths))
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// externalImports returns the sorted import paths of every discovered
// package that resolve outside the module, from an imports-only parse.
// A file whose import clause does not parse is skipped here; loading its
// package reports the syntax error.
func (ld *loader) externalImports() ([]string, error) {
	set := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range ld.dirs {
		files, err := sourceFiles(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				continue
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value) // the parse validated it
				if _, internal := ld.dirs[path]; !internal {
					set[path] = true
				}
			}
		}
	}
	paths := make([]string, 0, len(set))
	for path := range set {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths, nil
}

// discover maps every package directory in the module to its import
// path. A directory below the root that holds its own go.mod is another
// module, which the go tool's ./... skips too.
func (ld *loader) discover() error {
	return filepath.WalkDir(ld.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ld.modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || hasGoMod(path)) {
			return filepath.SkipDir
		}
		if !hasGoSource(path) {
			return nil
		}
		rel, err := filepath.Rel(ld.modRoot, path)
		if err != nil {
			return err
		}
		imp := ld.modPath
		if rel != "." {
			imp = ld.modPath + "/" + filepath.ToSlash(rel)
		}
		ld.dirs[imp] = path
		return nil
	})
}

// hasGoMod reports whether dir holds a go.mod, making it a module root.
func hasGoMod(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// hasGoSource reports whether dir directly contains a non-test .go file.
func hasGoSource(dir string) bool {
	files, err := sourceFiles(dir)
	return err == nil && len(files) > 0
}

// sourceFiles lists the paths of dir's non-test .go files that the
// environment's build context selects (GOOS and GOARCH file suffixes,
// //go:build lines), sorted: the files go build compiles.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

// match expands patterns to a sorted list of known import paths.
func (ld *loader) match(patterns []string) ([]string, error) {
	set := make(map[string]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "" {
			pat = ld.modPath
		} else if strings.HasPrefix(pat, "./") {
			pat = ld.modPath + "/" + strings.TrimPrefix(pat, "./")
		} else if !strings.HasPrefix(pat, ld.modPath) {
			pat = ld.modPath + "/" + pat
		}
		matched := false
		for imp := range ld.dirs {
			if imp == pat || (recursive && (pat == ld.modPath || strings.HasPrefix(imp, pat+"/"))) {
				set[imp] = true
				matched = true
			}
		}
		if !matched && !recursive {
			return nil, fmt.Errorf("lint: no package matches %q", pat)
		}
	}
	out := make([]string, 0, len(set))
	for imp := range set {
		out = append(out, imp)
	}
	sort.Strings(out)
	return out, nil
}

// load parses and type-checks one module package (memoized).
func (ld *loader) load(path string) (*Package, error) {
	if pkg, ok := ld.loaded[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir, ok := ld.dirs[path]
	if !ok {
		return nil, fmt.Errorf("unknown package %s", path)
	}
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go source in %s", dir)
	}

	pkg := &Package{PkgPath: path, Dir: dir, Fset: ld.fset}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: (*modImporter)(ld),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil && tpkg == nil {
		return nil, err
	}
	pkg.Files = files
	pkg.Types = tpkg
	pkg.Info = info
	ld.loaded[path] = pkg
	return pkg, nil
}

// modImporter resolves module-internal imports through the loader and
// everything else from export data.
type modImporter loader

func (m *modImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(m)
	if _, ok := ld.dirs[path]; ok {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.external.Import(path)
}
