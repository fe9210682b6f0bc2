package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inModule writes a throwaway module with one package a holding src,
// and makes it the working directory for the rest of the test.
func inModule(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a", "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

const cleanSrc = "package a\n\nimport \"sync\"\n\n// Mu guards N.\nvar Mu sync.Mutex\n\n// N counts.\nvar N int\n"

// TestExitStatus pins blklint's exit contract: 0 clean, 1 findings, 2
// operational error — and code that does not type-check is an
// operational error, not a clean run.
func TestExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages through go list")
	}
	cases := []struct {
		name string
		src  string
		args []string
		want int
		// stderr must contain this
		msg string
	}{
		{"clean", cleanSrc, nil, 0, ""},
		{"finding", "package a\n\n// Bad closes twice.\nfunc Bad() {\n\tch := make(chan int)\n\tclose(ch)\n\tclose(ch)\n}\n", nil, 1, ""},
		{"type error", "package a\n\n// Bad calls nothing.\nfunc Bad() { undefinedFunc() }\n", nil, 2, "undefined: undefinedFunc"},
		{"unknown analyzer", cleanSrc, []string{"-only", "nosuchcheck"}, 2, "unknown analyzer"},
		{"json and sarif", cleanSrc, []string{"-json", "-sarif"}, 2, "mutually exclusive"},
		{"removed -cache", cleanSrc, []string{"-cache"}, 2, "flag provided but not defined: -cache"},
		{"removed -changed", cleanSrc, []string{"-changed", "HEAD"}, 2, "flag provided but not defined: -changed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inModule(t, c.src)
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, c.want, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("stderr %q does not mention %q", &stderr, c.msg)
			}
		})
	}
}
