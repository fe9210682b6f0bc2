package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"burstlink/internal/codec"
	"burstlink/internal/exp"
	"burstlink/internal/par"
	"burstlink/internal/units"
	"burstlink/internal/vr"
)

// bench-json times the three worker-pool kernels (codec encode, VR
// projection, experiment sweep) serially (par.SetWorkers(1)) and with the
// full pool, and writes the timings plus speedups as machine-readable
// JSON. CI and the bench harness consume the file; on a single-core
// machine the speedups hover around 1.

// benchResult is one serial-vs-parallel measurement.
type benchResult struct {
	Name       string  `json:"name"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// benchReport is the top-level BENCH_parallel.json document.
type benchReport struct {
	Workers    int           `json:"workers"`
	Reps       int           `json:"reps"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// timeKernel runs fn reps times and returns the best (minimum) duration,
// the usual way to suppress scheduling noise in coarse wall-clock timing.
func timeKernel(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// measure times fn serially and with the default worker pool.
func measure(name string, reps int, fn func() error) (benchResult, error) {
	prev := par.SetWorkers(1)
	serial, err := timeKernel(reps, fn)
	par.SetWorkers(prev)
	if err != nil {
		return benchResult{}, fmt.Errorf("%s (serial): %w", name, err)
	}
	parallel, err := timeKernel(reps, fn)
	if err != nil {
		return benchResult{}, fmt.Errorf("%s (parallel): %w", name, err)
	}
	res := benchResult{Name: name, SerialNs: serial.Nanoseconds(), ParallelNs: parallel.Nanoseconds()}
	if parallel > 0 {
		res.Speedup = float64(serial) / float64(parallel)
	}
	return res, nil
}

func benchJSONCmd(args []string) error {
	if len(args) > 0 && args[0] == "lint" {
		return benchLintCmd(args[1:])
	}
	fs := flag.NewFlagSet("bench-json", flag.ContinueOnError)
	out := fs.String("o", "BENCH_parallel.json", "output JSON file")
	w := fs.Int("w", 1280, "encode benchmark frame width")
	h := fs.Int("h", 720, "encode benchmark frame height")
	reps := fs.Int("reps", 3, "repetitions per kernel (best time wins)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("bench-json: -reps must be >= 1")
	}

	report := benchReport{Workers: par.Workers(), Reps: *reps}

	// Codec: one I frame plus one motion-searched P frame per run.
	encBench := func() error {
		cfg := codec.DefaultEncoderConfig()
		enc, err := codec.NewEncoder(*w, *h, cfg)
		if err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if _, _, err := enc.Encode(synthFrame(*w, *h, i)); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := measure(fmt.Sprintf("codec-encode-%dx%d", *w, *h), *reps, encBench)
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, res)

	// VR: one HMD-scale viewport from a 4K-class equirectangular source.
	src := codec.NewFrame(2048, 1024)
	for p := range src.Planes {
		for i := range src.Planes[p] {
			src.Planes[p][i] = byte(i*7 + p)
		}
	}
	pr, err := vr.NewProjector(units.Resolution{Width: 1440, Height: 1600}, 100)
	if err != nil {
		return err
	}
	tr, err := vr.Rollercoaster.Trace()
	if err != nil {
		return err
	}
	res, err = measure("vr-project-1440x1600", *reps, func() error {
		pr.Project(src, tr(0.5))
		return nil
	})
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, res)

	// Experiments: the full paper sweep, the `burstlink run all` workload.
	// Ctrl-C cancels the sweep cells that have not started yet.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	exps := exp.Registry()
	res, err = measure("exp-sweep-registry", *reps, func() error {
		_, err := exp.RunAll(ctx, exps)
		return err
	})
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks, res)

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	for _, r := range report.Benchmarks {
		fmt.Printf("%-24s serial %8.1fms  parallel %8.1fms  speedup %.2fx\n",
			r.Name, float64(r.SerialNs)/1e6, float64(r.ParallelNs)/1e6, r.Speedup)
	}
	fmt.Printf("wrote %s (workers=%d)\n", *out, report.Workers)
	return nil
}
