package lint

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// ChangedPatterns returns the load patterns ("./dir") of every package
// directory holding a Go file that differs from ref — tracked changes
// via `git diff --name-only ref`, plus untracked files. This is what
// `blklint -changed origin/main` scopes the run to: the local
// pre-commit loop analyzes only what the branch touched, while CI keeps
// running the full module.
//
// An empty slice means nothing Go-visible changed; the caller should
// treat that as a clean run, not as "analyze everything". Deleted files
// drop out naturally: their directories are only included if they still
// contain Go sources.
func ChangedPatterns(modRoot, ref string) ([]string, error) {
	files, err := gitLines(modRoot, "diff", "--name-only", ref)
	if err != nil {
		return nil, fmt.Errorf("lint: git diff %s: %w", ref, err)
	}
	untracked, err := gitLines(modRoot, "ls-files", "--others", "--exclude-standard")
	if err != nil {
		return nil, fmt.Errorf("lint: git ls-files: %w", err)
	}
	dirs := make(map[string]bool)
	for _, f := range append(files, untracked...) {
		if !strings.HasSuffix(f, ".go") {
			continue
		}
		dir := filepath.Dir(filepath.FromSlash(f))
		if dir == "." {
			dirs["."] = true
			continue
		}
		// Skip fixture trees: they are loaded by tests, never by the
		// production driver.
		if strings.Contains(f, "testdata/") {
			continue
		}
		dirs[dir] = true
	}
	var patterns []string
	for dir := range dirs {
		if !hasGoSource(filepath.Join(modRoot, dir)) {
			continue // package deleted or tests-only
		}
		if inNestedModule(modRoot, dir) {
			continue // another module; Load does not map it either
		}
		patterns = append(patterns, "./"+filepath.ToSlash(dir))
	}
	sort.Strings(patterns)
	return patterns, nil
}

// inNestedModule reports whether dir, relative to modRoot, lies in a
// module of its own: dir or a parent below modRoot holds a go.mod.
func inNestedModule(modRoot, dir string) bool {
	for d := dir; d != "."; d = filepath.Dir(d) {
		if hasGoMod(filepath.Join(modRoot, d)) {
			return true
		}
	}
	return false
}

// gitLines runs git in dir and splits its stdout into non-empty lines.
func gitLines(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}
