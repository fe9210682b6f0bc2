package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// runTraced is the --trace 1 run: one setup, then four quarter windows
// alternating untraced and traced (so drift over the run cancels out of
// trace.overhead_frac), the layer replays (while the servers still hold
// their counters), the correctness gate, and the kernel table.
func runTraced(ctx context.Context, spec workloadSpec, cfg runConfig, env envBlock, stdout io.Writer) (result, error) {
	tr := newTracer()
	sys, err := spec.setup(cfg, tr)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	var next atomic.Int64
	var plain, traced window
	for k := 0; k < 4; k++ {
		tr.on.Store(k%2 == 1)
		w := loop(ctx, sys, spec.clients, cfg.window/4, &next, tr)
		if k%2 == 1 {
			traced.merge(w)
		} else {
			plain.merge(w)
		}
	}
	tr.on.Store(false)

	lr := newLayerReport()
	lr.spans = tr.records()
	if err := sys.layers(ctx, int(next.Load()), lr); err != nil {
		_ = sys.close()
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	all := plain
	all.merge(traced)
	res, err := finish(ctx, sys, all)
	if err != nil {
		return result{}, err
	}

	if plain.attempted > 0 {
		lr.set("go.alloc_kb_per_op", float64(plain.allocs)/1024/float64(plain.attempted))
		lr.set("go.gc_cycles_per_kop", float64(plain.gcs)*1000/float64(plain.attempted))
	}
	rate := func(w window) float64 { return float64(len(w.latencies)) / w.wall.Seconds() }
	if rate(plain) > 0 {
		lr.set("trace.overhead_frac", 1-rate(traced)/rate(plain))
	}
	benchtime := kernelBenchtime(cfg.size)
	kernels := runKernels(ctx, benchtime)
	for _, k := range kernels {
		lr.set("kernel."+k.Name+"_ns", k.NsPerOp)
	}
	res.Metrics = lr.metrics()

	fmt.Fprintf(stdout, "%s traced: %d ops (%d traced), failed %d, gate checked %d\n",
		spec.name, all.attempted, traced.attempted, res.Failed, res.GateChecked)
	if len(lr.budget) > 0 {
		lr.printBudget(stdout, spec.name)
	}
	printKernels(stdout, kernels, benchtime)
	printMetrics(stdout, res.Metrics)
	if err := writeTrace(cfg.outDir, spec.name, env, lr, kernels, res); err != nil {
		return result{}, err
	}
	return res, nil
}

// writeTrace writes the traced run's tables to <dir>/<workload>-trace.json
// and its spans, one request per line, to <dir>/<workload>-spans.jsonl.
func writeTrace(dir, name string, env envBlock, lr *layerReport, kernels []kernelRow, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Env     envBlock          `json:"env"`
		Budget  []budgetRow       `json:"budget"`
		Kernels []kernelRow       `json:"kernels"`
		Metrics map[string]metric `json:"metrics"`
	}{env, lr.budget, kernels, res.Metrics}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+"-trace.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+"-spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, rec := range lr.spans {
		m := make(map[string]span, numSpanKinds)
		for k, s := range rec {
			if s.set() {
				m[spanNames[k]] = s
			}
		}
		line, err := json.Marshal(m)
		if err != nil {
			_ = f.Close()
			return err
		}
		_, _ = w.Write(append(line, '\n'))
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
