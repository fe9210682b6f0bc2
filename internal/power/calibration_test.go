package power

import (
	"math"
	"testing"

	"burstlink/internal/core"
	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/units"
)

// within asserts got is within tol (fractional) of want.
// UnitLoad is the FHD-30FPS anchor load the calibration and property
// tests evaluate timelines under.
var UnitLoad = Load{Demand: 1, PanelRatio: 1}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Errorf("%s = %.1f, want %.1f (±%.0f%%)", name, got, want, tol*100)
	}
}

// Table 2 anchors: measured per-state powers of the baseline system.
func TestStatePowersMatchTable2(t *testing.T) {
	m := Default()
	// C0/C2 in Table 2 include DRAM operating power at the measured
	// bandwidths; the composed base powers equal the measured values
	// minus that op power (see Default's doc comment).
	within(t, "C7", float64(m.StatePower(soc.C7)), 1385, 0.02)
	within(t, "C8", float64(m.StatePower(soc.C8)), 1285, 0.02)
	within(t, "C9", float64(m.StatePower(soc.C9)), 1090, 0.02)
	// C0/C2 base + measured-bandwidth op ≈ 5940 / 5445.
	opC0 := float64(pipeline.DefaultDRAM().OperatingPower(units.GBps(0.039), units.GBps(2.074)))
	within(t, "C0+op", float64(m.StatePower(soc.C0))+opC0, 5940, 0.02)
	opC2 := float64(pipeline.DefaultDRAM().OperatingPower(units.GBps(1.70), 0))
	within(t, "C2+op", float64(m.StatePower(soc.C2))+opC2, 5445, 0.02)
}

// Table 2 anchor: baseline FHD 30FPS average power ≈ 2162 mW with
// residencies ≈ 9% C0 / 11% C2 / 80% C8.
func TestBaselineFHD30MatchesTable2(t *testing.T) {
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.FHD, 60, 30)
	tl, err := pipeline.Conventional(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res := tl.Residency()
	within(t, "R_C0", res[soc.C0], 0.09, 0.02)
	within(t, "R_C2", res[soc.C2], 0.11, 0.02)
	within(t, "R_C8", res[soc.C8], 0.80, 0.02)

	got := Default().Evaluate(tl, LoadOf(p, s))
	within(t, "AvgP baseline FHD30", float64(got.Average), 2162, 0.02)
}

// Table 2 anchor: BurstLink FHD 30FPS average power ≈ 1274 mW with
// residencies ≈ 2% C0 / 19% C7(') / 79% C9, i.e. >40% power reduction.
func TestBurstLinkFHD30MatchesTable2(t *testing.T) {
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.FHD, 60, 30)
	tl, err := core.BurstLink(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res := tl.Residency()
	within(t, "R_C0", res[soc.C0], 0.02, 0.05)
	within(t, "R_C7+C7'", res[soc.C7]+res[soc.C7Prime], 0.19, 0.10)
	within(t, "R_C9", res[soc.C9], 0.79, 0.03)

	got := Default().Evaluate(tl, LoadOf(p, s))
	within(t, "AvgP BurstLink FHD30", float64(got.Average), 1274, 0.03)
}

// §5.3: the paper validates its model at ~96% accuracy; our composed
// averages must sit within 4% of the Table 2 anchors.
func TestModelValidationAccuracy(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	s := pipeline.Planar(units.FHD, 60, 30)
	base, _ := pipeline.Conventional(p, s)
	bl, _ := core.BurstLink(p, s)
	accBase := 1 - math.Abs(float64(m.Evaluate(base, UnitLoad).Average)-2162)/2162
	accBL := 1 - math.Abs(float64(m.Evaluate(bl, UnitLoad).Average)-1274)/1274
	if accBase < 0.96 {
		t.Errorf("baseline model accuracy %.1f%% < 96%%", accBase*100)
	}
	if accBL < 0.96 {
		t.Errorf("BurstLink model accuracy %.1f%% < 96%%", accBL*100)
	}
}

// Fig 9 anchor points at FHD 30FPS: Frame Bursting ≈ 23%, Frame Buffer
// Bypassing ≈ 31%, full BurstLink ≈ 37-41%.
func TestFig9FHDReductions(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	s := pipeline.Planar(units.FHD, 60, 30)
	load := LoadOf(p, s)
	base, _ := pipeline.Conventional(p, s)
	ref := float64(m.Evaluate(base, load).Average)

	burst, err := core.BurstOnly(p, s)
	if err != nil {
		t.Fatal(err)
	}
	byp, err := core.BypassOnly(p, s)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.BurstLink(p, s)
	if err != nil {
		t.Fatal(err)
	}
	redBurst := 1 - float64(m.Evaluate(burst, load).Average)/ref
	redByp := 1 - float64(m.Evaluate(byp, load).Average)/ref
	redFull := 1 - float64(m.Evaluate(full, load).Average)/ref

	if redBurst < 0.18 || redBurst > 0.28 {
		t.Errorf("burst-only reduction = %.1f%%, want ~23%%", redBurst*100)
	}
	if redByp < 0.27 || redByp > 0.37 {
		t.Errorf("bypass-only reduction = %.1f%%, want ~31%%", redByp*100)
	}
	if redFull < 0.35 || redFull > 0.45 {
		t.Errorf("full reduction = %.1f%%, want ~37-41%%", redFull*100)
	}
	// Composition ordering: full > bypass > burst.
	if !(redFull > redByp && redByp > redBurst) {
		t.Errorf("ordering violated: full %.1f%% bypass %.1f%% burst %.1f%%",
			redFull*100, redByp*100, redBurst*100)
	}
}

// Fig 9/12: BurstLink's reduction grows with display resolution and with
// frame rate.
func TestReductionMonotoneInResolutionAndFPS(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	resList := []units.Resolution{units.FHD, units.QHD, units.R4K, units.R5K}
	for _, fps := range []units.FPS{30, 60} {
		prev := -1.0
		for _, r := range resList {
			s := pipeline.Planar(r, 60, fps)
			load := LoadOf(p, s)
			base, err := pipeline.Conventional(p, s)
			if err != nil {
				t.Fatal(err)
			}
			full, err := core.BurstLink(p, s)
			if err != nil {
				t.Fatal(err)
			}
			red := 1 - float64(m.Evaluate(full, load).Average)/float64(m.Evaluate(base, load).Average)
			if red <= prev {
				t.Errorf("%v@%d: reduction %.1f%% not above previous %.1f%%", r, fps, red*100, prev*100)
			}
			prev = red
		}
	}
	// 60 FPS beats 30 FPS at the same resolution (Fig 12 vs Fig 9).
	for _, r := range resList {
		red := func(fps units.FPS) float64 {
			s := pipeline.Planar(r, 60, fps)
			load := LoadOf(p, s)
			base, _ := pipeline.Conventional(p, s)
			full, _ := core.BurstLink(p, s)
			return 1 - float64(m.Evaluate(full, load).Average)/float64(m.Evaluate(base, load).Average)
		}
		if red(60) <= red(30) {
			t.Errorf("%v: 60FPS reduction should exceed 30FPS", r)
		}
	}
}

// Fig 1: DRAM's share of baseline system energy grows with resolution;
// Display energy grows in absolute terms.
func TestFig1BreakdownTrends(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	var prevShare, prevDisplay float64
	for i, r := range []units.Resolution{units.FHD, units.QHD, units.R4K} {
		s := pipeline.Planar(r, 60, 30)
		tl, err := pipeline.Conventional(p, s)
		if err != nil {
			t.Fatal(err)
		}
		bd := m.BreakdownOf(tl, LoadOf(p, s))
		share := float64(bd.DRAM) / float64(bd.Total())
		if i > 0 && share <= prevShare {
			t.Errorf("%v: DRAM share %.1f%% not above previous %.1f%%", r, share*100, prevShare*100)
		}
		if i > 0 && float64(bd.Display) <= prevDisplay {
			t.Errorf("%v: Display energy did not grow", r)
		}
		prevShare, prevDisplay = share, float64(bd.Display)
	}
}

// Fig 10: BurstLink reduces DRAM energy by a large factor (3.8-5.7×) and
// the factor grows with resolution.
func TestFig10DRAMReductionFactors(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	var prevFactor float64
	for i, r := range []units.Resolution{units.FHD, units.QHD, units.R4K, units.R5K} {
		s := pipeline.Planar(r, 60, 30)
		load := LoadOf(p, s)
		base, err := pipeline.Conventional(p, s)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.BurstLink(p, s)
		if err != nil {
			t.Fatal(err)
		}
		factor := float64(m.BreakdownOf(base, load).DRAM) / float64(m.BreakdownOf(full, load).DRAM)
		if factor < 3 {
			t.Errorf("%v: DRAM reduction factor %.1f×, want >= 3×", r, factor)
		}
		if i > 0 && factor <= prevFactor {
			t.Errorf("%v: DRAM factor %.1f× not above previous %.1f×", r, factor, prevFactor)
		}
		prevFactor = factor
	}
}

// The breakdown must account for all energy.
func TestBreakdownSumsToTotal(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	for _, r := range []units.Resolution{units.FHD, units.R4K} {
		s := pipeline.Planar(r, 60, 30)
		load := LoadOf(p, s)
		tl, _ := pipeline.Conventional(p, s)
		bd := m.BreakdownOf(tl, load)
		total := m.Evaluate(tl, load).Energy
		within(t, "breakdown total "+r.Name(), float64(bd.Total()), float64(total), 0.001)
	}
}

func TestTransitionEnergySmallButPositive(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	s := pipeline.Planar(units.FHD, 60, 30)
	tl, _ := pipeline.Conventional(p, s)
	r := m.Evaluate(tl, UnitLoad)
	if r.Transitions <= 0 {
		t.Fatal("transition energy should be positive")
	}
	if float64(r.Transitions)/float64(r.Energy) > 0.03 {
		t.Fatalf("transition energy %.1f%% of total, want < 3%%",
			100*float64(r.Transitions)/float64(r.Energy))
	}
}

func TestPhasePowerMonotoneInState(t *testing.T) {
	m := Default()
	// Deeper states must compose to lower base power.
	states := []soc.PackageCState{soc.C0, soc.C2, soc.C3, soc.C6, soc.C7, soc.C8, soc.C9, soc.C10}
	for i := 1; i < len(states); i++ {
		if m.StatePower(states[i]) >= m.StatePower(states[i-1]) {
			t.Errorf("StatePower(%v) >= StatePower(%v)", states[i], states[i-1])
		}
	}
}

func TestDVFSAndPanelScalingIncreasePower(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	s := pipeline.Planar(units.FHD, 60, 30)
	tl, _ := pipeline.Conventional(p, s)
	base := m.Evaluate(tl, UnitLoad).Average
	scaled := m.Evaluate(tl, Load{Demand: 2, PanelRatio: 4}).Average
	if scaled <= base {
		t.Fatal("higher load should cost more power")
	}
}
