// Command perfbench is the repository's benchmark. It runs one of four
// workloads against production code — in-process blkd nodes, the
// consistent-hash router and the functional simulators — and prints
// every metric by name with its unit, checking every output on the way.
//
//	bash perfbench/run.sh --workload session-routed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, writes a per-workload budget table and
// a kernel table, and keeps its spans under .bench_build/perfbench.
// The last line of standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md in this
// directory lists the workloads, the metrics and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the workload, and prints the
// environment block, the tables and the final result line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build/perfbench", "directory the traced run writes its tables and spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		outDir: *outDir,
		size:   fullSize,
	}
	res, err := runWorkload(spec, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
