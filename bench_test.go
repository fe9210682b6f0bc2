// Package burstlink's root bench harness regenerates every table and
// figure in the paper's evaluation (§6). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment driver once per iteration and
// reports the headline metric of the corresponding figure as a custom
// benchmark metric (e.g. reduction percentages), so `go test -bench` output
// doubles as a compact reproduction log. Ablation benches at the bottom
// sweep the design parameters DESIGN.md §4.4 calls out.
package burstlink

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"burstlink/internal/baseline"
	"burstlink/internal/core"
	"burstlink/internal/exp"
	"burstlink/internal/par"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

// runExp executes an experiment driver b.N times and returns the last
// table.
func runExp(b *testing.B, id string) exp.Table {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab exp.Table
	for i := 0; i < b.N; i++ {
		tab, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// cellPct parses "41.2%" into 41.2 for metric reporting.
func cellPct(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", s, err)
	}
	return v
}

func BenchmarkFig1BaselineBreakdown(b *testing.B) {
	tab := runExp(b, "fig1")
	b.ReportMetric(cellPct(b, tab.Rows[len(tab.Rows)-1][4]), "4K_total_vs_FHD_%")
}

func BenchmarkFig3BaselineTimeline(b *testing.B) {
	runExp(b, "fig3")
}

func BenchmarkFig4MixedWorkload(b *testing.B) {
	runExp(b, "fig4")
}

func BenchmarkTable2PowerComparison(b *testing.B) {
	tab := runExp(b, "table2")
	// Report the two AvgP rows.
	for _, row := range tab.Rows {
		if row[1] == "AvgP" {
			v, _ := strconv.ParseFloat(strings.Fields(row[2])[0], 64)
			b.ReportMetric(v, row[0]+"_avg_mW")
		}
	}
}

func BenchmarkFig6BypassTimeline(b *testing.B) {
	runExp(b, "fig6")
}

func BenchmarkFig7BurstLinkTimeline(b *testing.B) {
	runExp(b, "fig7")
}

func BenchmarkFig9PlanarEnergy30FPS(b *testing.B) {
	tab := runExp(b, "fig9")
	b.ReportMetric(cellPct(b, tab.Rows[0][4]), "FHD_reduction_%")
	b.ReportMetric(cellPct(b, tab.Rows[2][4]), "4K_reduction_%")
	b.ReportMetric(cellPct(b, tab.Rows[3][4]), "5K_reduction_%")
}

func BenchmarkFig10EnergyBreakdown(b *testing.B) {
	tab := runExp(b, "fig10")
	// DRAM reduction factor at FHD (row 1, last column, "3.8x" style).
	f, _ := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[1][5], "x"), 64)
	b.ReportMetric(f, "FHD_DRAM_reduction_x")
}

func BenchmarkFig11aVRWorkloads(b *testing.B) {
	tab := runExp(b, "fig11a")
	for _, row := range tab.Rows {
		b.ReportMetric(cellPct(b, row[3]), row[0]+"_%")
	}
}

func BenchmarkFig11bVRResolutions(b *testing.B) {
	tab := runExp(b, "fig11b")
	b.ReportMetric(cellPct(b, tab.Rows[0][2]), "eye960_%")
	b.ReportMetric(cellPct(b, tab.Rows[len(tab.Rows)-1][2]), "eye1440_%")
}

func BenchmarkFig12PlanarEnergy60FPS(b *testing.B) {
	tab := runExp(b, "fig12")
	b.ReportMetric(cellPct(b, tab.Rows[0][4]), "FHD_reduction_%")
	b.ReportMetric(cellPct(b, tab.Rows[3][4]), "5K_reduction_%")
}

func BenchmarkFig13FBCComparison(b *testing.B) {
	tab := runExp(b, "fig13")
	b.ReportMetric(cellPct(b, tab.Rows[0][3]), "4K_FBC50_%")
	b.ReportMetric(cellPct(b, tab.Rows[0][4]), "4K_BurstLink_%")
}

func BenchmarkFig14aLocalPlayback(b *testing.B) {
	tab := runExp(b, "fig14a")
	for _, row := range tab.Rows {
		b.ReportMetric(cellPct(b, row[2]), strings.ReplaceAll(row[0], " ", "")+"_%")
	}
}

func BenchmarkFig14bOtherWorkloads(b *testing.B) {
	tab := runExp(b, "fig14b")
	for _, row := range tab.Rows {
		b.ReportMetric(cellPct(b, row[1]), strings.ReplaceAll(row[0], " ", "")+"_FHD_%")
	}
}

func BenchmarkZhangComparison(b *testing.B) {
	tab := runExp(b, "zhang")
	b.ReportMetric(cellPct(b, tab.Rows[0][1]), "zhang_%")
	b.ReportMetric(cellPct(b, tab.Rows[1][1]), "burstlink_%")
}

func BenchmarkVIPComparison(b *testing.B) {
	tab := runExp(b, "vip")
	b.ReportMetric(cellPct(b, tab.Rows[0][1]), "vip_%")
	b.ReportMetric(cellPct(b, tab.Rows[1][1]), "burstlink_%")
}

func BenchmarkModelValidation(b *testing.B) {
	tab := runExp(b, "valid")
	for _, row := range tab.Rows {
		acc, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		b.ReportMetric(acc, strings.Fields(row[0])[0]+"_accuracy_%")
	}
}

// --- Ablations (DESIGN.md §4.4) ---

// reductionFor evaluates full BurstLink vs baseline on a platform.
func reductionFor(b *testing.B, p pipeline.Platform, s pipeline.Scenario) float64 {
	b.Helper()
	m := power.Default()
	load := power.LoadOf(p, s)
	base, err := pipeline.Conventional(p, s)
	if err != nil {
		b.Fatal(err)
	}
	full, err := core.BurstLink(p, s)
	if err != nil {
		b.Fatal(err)
	}
	return 100 * (1 - float64(m.Evaluate(full, load).Average)/float64(m.Evaluate(base, load).Average))
}

// BenchmarkAblationDCBufferSize sweeps the DC buffer (chunk) size: smaller
// chunks mean more C2/C8 alternations and more transition energy in the
// baseline.
func BenchmarkAblationDCBufferSize(b *testing.B) {
	s := pipeline.Planar(units.R4K, 60, 30)
	for i := 0; i < b.N; i++ {
		for _, size := range []units.ByteSize{128 * units.KB, 512 * units.KB, 2 * units.MB} {
			p := pipeline.DefaultPlatform()
			p.DCBufSize = size
			red := reductionFor(b, p, s)
			if i == 0 {
				b.ReportMetric(red, "buf"+strconv.FormatInt(int64(size/units.KB), 10)+"KB_%")
			}
		}
	}
}

// BenchmarkAblationEDPBandwidth sweeps the burst link bandwidth (eDP 1.3
// vs 1.4 vs a hypothetical 2x): higher bandwidth, longer C9 residency.
// eDP 1.3 cannot even carry 5K 60FPS in burst mode (20.5 ms > the 16.7 ms
// window); that infeasibility reports as 0.
func BenchmarkAblationEDPBandwidth(b *testing.B) {
	s := pipeline.Planar(units.R5K, 60, 60) // link-bound at 5K
	m := power.Default()
	cfgs := map[string]func(p *pipeline.Platform){
		"eDP1.3": func(p *pipeline.Platform) { p.Link.LaneRate = 5.4 * units.Gbps },
		"eDP1.4": func(p *pipeline.Platform) {},
		"2x":     func(p *pipeline.Platform) { p.Link.LaneRate = 16.2 * units.Gbps },
	}
	for i := 0; i < b.N; i++ {
		for name, mod := range cfgs {
			p := pipeline.DefaultPlatform()
			mod(&p)
			load := power.LoadOf(p, s)
			base, err := pipeline.Conventional(p, s)
			if err != nil {
				b.Fatal(err)
			}
			red := 0.0 // infeasible burst configuration
			if full, err := core.BurstLink(p, s); err == nil {
				red = 100 * (1 - float64(m.Evaluate(full, load).Average)/float64(m.Evaluate(base, load).Average))
			}
			if i == 0 {
				b.ReportMetric(red, name+"_%")
			}
		}
	}
}

// BenchmarkAblationOrchestrationOffload compares BurstLink with and
// without the PMU-firmware orchestration offload (§4.4 change 2).
func BenchmarkAblationOrchestrationOffload(b *testing.B) {
	s := pipeline.Planar(units.FHD, 60, 30)
	for i := 0; i < b.N; i++ {
		with := pipeline.DefaultPlatform()
		without := pipeline.DefaultPlatform()
		without.OrchTimeBL = without.OrchTime // no offload
		rw := reductionFor(b, with, s)
		ro := reductionFor(b, without, s)
		if i == 0 {
			b.ReportMetric(rw, "with_offload_%")
			b.ReportMetric(ro, "without_offload_%")
		}
	}
}

// BenchmarkAblationFBCRateSweep sweeps FBC compression rates at 4K.
func BenchmarkAblationFBCRateSweep(b *testing.B) {
	p := pipeline.DefaultPlatform()
	m := power.Default()
	s := pipeline.Planar(units.R4K, 60, 60)
	load := power.LoadOf(p, s)
	base, err := pipeline.Conventional(p, s)
	if err != nil {
		b.Fatal(err)
	}
	ref := float64(m.Evaluate(base, load).Average)
	for i := 0; i < b.N; i++ {
		for _, rate := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			tl, err := baseline.FBC(p, s, baseline.DefaultFBC(rate))
			if err != nil {
				b.Fatal(err)
			}
			red := 100 * (1 - float64(m.Evaluate(tl, load).Average)/ref)
			if i == 0 {
				b.ReportMetric(red, "rate"+strconv.Itoa(int(rate*100))+"_%")
			}
		}
	}
}

// BenchmarkFunctionalPipelines measures the end-to-end functional
// simulators (real codec through real panel).
func BenchmarkFunctionalPipelines(b *testing.B) {
	p := pipeline.DefaultPlatform()
	cfg := pipeline.FunctionalConfig{Width: 96, Height: 64, Frames: 4, FPS: 30, Refresh: 60}
	b.Run("conventional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.RunFunctionalMemo(p, nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("burstlink", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunFunctionalMemo(p, nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExpSweep runs the complete paper sweep (every Registry
// experiment) serially and on the worker pool, reporting the pool's
// wall-clock speedup as speedup_x (≈1 on a single-core machine). The
// parallel sweep is what `burstlink run all` executes.
func BenchmarkExpSweep(b *testing.B) {
	exps := exp.Registry()
	b.Run("serial", func(b *testing.B) {
		defer par.SetWorkers(par.SetWorkers(1))
		for i := 0; i < b.N; i++ {
			if _, err := exp.RunAll(context.Background(), exps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		defer par.SetWorkers(par.SetWorkers(1))
		start := time.Now()
		if _, err := exp.RunAll(context.Background(), exps); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(start)
		par.SetWorkers(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := exp.RunAll(context.Background(), exps); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if per := b.Elapsed() / time.Duration(b.N); per > 0 {
			b.ReportMetric(float64(serial)/float64(per), "speedup_x")
		}
	})
}

// BenchmarkUIWorkloads measures the Fig 14(b) scheduler pair.
func BenchmarkUIWorkloads(b *testing.B) {
	p := pipeline.DefaultPlatform()
	for i := 0; i < b.N; i++ {
		for _, w := range workload.Fig14bWorkloads() {
			if _, err := workload.UIConventional(p, w, units.FHD, 60); err != nil {
				b.Fatal(err)
			}
			if _, err := workload.UIBurst(p, w, units.FHD, 60); err != nil {
				b.Fatal(err)
			}
		}
	}
}
