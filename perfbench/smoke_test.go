package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// results against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at a tiny size, untraced and traced, so
// a change that breaks a workload fails here in seconds. Each run must
// report exactly the metrics BENCHMARK.json names for its mode, with
// their units, fail no operation, and pass its correctness gate.
func TestSmoke(t *testing.T) {
	bf := readBenchmark(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := workloadNames(), strings.Join(names, ", "); got != want {
		t.Fatalf("workloads %q, BENCHMARK.json names %q", got, want)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			mode, want := "e2e", map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				mode, want = "traced", map[string]string{}
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				cfg := runConfig{seed: 7, window: 400 * time.Millisecond, traced: traced, outDir: t.TempDir(), size: smokeSize}
				var out bytes.Buffer
				res, err := runWorkload(workloads[name], cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if res.GateChecked == 0 {
					t.Errorf("the correctness gate checked nothing")
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", n, m.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if !traced {
					if v := res.Metrics["success_ratio"].Value; v != 1 {
						t.Errorf("success_ratio %g, want 1", v)
					}
					for n, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s is %g; every end-to-end metric must be positive", n, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestParseBenchLines pins the parser the kernel table reads the codec
// test binary's output with.
func TestParseBenchLines(t *testing.T) {
	in := `goos: linux
BenchmarkSAD/interior-2         	 1000000	       215.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkSAD/edge-2             	  500000	       412.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkDCT8-2                 	 2000000	        98.5 ns/op	       0 B/op	       0 allocs/op
PASS
`
	rows := parseBenchLines(bytes.NewReader([]byte(in)), map[string]string{
		"BenchmarkSAD/interior": "codec_sad",
		"BenchmarkDCT8":         "codec_dct8",
	})
	if len(rows) != 2 || rows[0].Name != "codec_sad" || rows[0].NsPerOp != 215.3 || rows[1].Name != "codec_dct8" || rows[1].NsPerOp != 98.5 {
		t.Fatalf("parsed %+v", rows)
	}
}
