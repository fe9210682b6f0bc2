// Command blklint runs BurstLink's domain-aware static analyzers over the
// module: determinism (determcheck), unit safety (unitcheck), concurrency
// discipline (parcheck), pool hygiene (poolcheck), dropped errors
// (errdrop), the interprocedural CFG-based checks (gatecheck, ctxcheck,
// lockcheck, detflow), key exhaustiveness for the segment cache
// (memokeycheck), the value-flow cache-integrity pair (aliascheck,
// purecheck), and the concurrency-soundness layer (lockorder, leakcheck,
// chancheck). See README.md "Static analysis" and DESIGN.md
// §4.6/§4.8/§4.11/§4.13.
//
// Usage:
//
//	go run ./cmd/blklint [-json|-sarif] [-only analyzer[,analyzer]] [packages]
//
// Packages default to ./... . Findings print as
// file:line:col: analyzer: message; -json emits the machine-readable
// schema and -sarif a SARIF 2.1.0 log instead. The standard library is
// read from the go command's export data, so `go` must be on PATH.
// Exit status: 0 clean, 1 findings, 2 operational error (including code
// that does not type-check). Suppress a finding with
// //lint:ignore <analyzer> <reason> on the finding's line or the line
// above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"burstlink/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blklint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	only := fs.String("only", "", "comma-separated analyzer subset (default: all)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: blklint [-json|-sarif] [-only analyzers] [packages]")
		fmt.Fprintln(stderr, "analyzers:")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "blklint: -json and -sarif are mutually exclusive")
		return 2
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "blklint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "blklint: %v\n", err)
		return 2
	}
	// SARIF artifact URIs are relative to the module root, so the log
	// matches the repository tree no matter where blklint was invoked.
	root := cwd
	if modRoot, err := lint.FindModuleRoot(cwd); err == nil {
		root = modRoot
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "blklint: %v\n", err)
		return 2
	}
	// Analyses of code that does not type-check prove nothing.
	typeErrs := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "blklint: typecheck %s: %v\n", pkg.PkgPath, terr)
			typeErrs = true
		}
	}
	if typeErrs {
		return 2
	}

	findings := lint.RunAnalyzers(pkgs, analyzers)
	switch {
	case *jsonOut:
		if err := json.NewEncoder(stdout).Encode(lint.Report(findings)); err != nil {
			fmt.Fprintf(stderr, "blklint: %v\n", err)
			return 2
		}
	case *sarifOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lint.SARIFReport(findings, analyzers, root)); err != nil {
			fmt.Fprintf(stderr, "blklint: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
