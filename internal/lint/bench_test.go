package lint

import "testing"

// benchFindings keeps the analysis results live so the compiler cannot
// drop the measured calls.
var benchFindings []Finding

// BenchmarkAnalyzers times blklint over the whole module: `load` is
// parsing and type-checking every package (the standard library from
// export data), then one sub-benchmark per analyzer and `all`, the full
// set as `blklint ./...` runs it, over a module loaded once outside
// those timings. Every iteration builds a fresh Program, so no summary
// is memoized across iterations. Run with -count for a spread:
//
//	go test -run '^$' -bench BenchmarkAnalyzers -count 5 ./internal/lint
func BenchmarkAnalyzers(b *testing.B) {
	patterns := []string{"./..."}
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Load(".", patterns); err != nil {
				b.Fatal(err)
			}
		}
	})
	pkgs, err := Load(".", patterns)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, analyzers []*Analyzer) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchFindings = RunAnalyzers(pkgs, analyzers)
			}
		})
	}
	for _, a := range All() {
		run(a.Name, []*Analyzer{a})
	}
	run("all", All())
}
