package power

import (
	"math"
	"testing"

	"burstlink/internal/core"
	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// TestComponentEnergyConservation: the bottom-up per-component attribution
// must sum to the top-down Evaluate energy, for every scheme and for both
// planar and VR scenarios.
func TestComponentEnergyConservation(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	scenarios := []pipeline.Scenario{
		pipeline.Planar(units.FHD, 60, 30),
		pipeline.Planar(units.R4K, 60, 60),
		{Res: units.Resolution{Width: 2160, Height: 1200}, Refresh: 60, FPS: 60, BPP: 24,
			VR: true, VRSource: units.R4K, MotionFactor: 1.4},
	}
	sum := func(mp map[soc.Component]units.Energy) float64 {
		var total float64
		for _, e := range mp {
			total += float64(e)
		}
		return total
	}
	for _, s := range scenarios {
		load := LoadOf(p, s)
		base, err := pipeline.Conventional(p, s)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.BurstLink(p, s)
		if err != nil {
			t.Fatal(err)
		}
		for name, tl := range map[string]trace.Timeline{"baseline": base, "burstlink": full} {
			got := sum(m.ComponentEnergy(tl, load))
			want := float64(m.Evaluate(tl, load).Energy)
			if math.Abs(got-want)/want > 1e-6 {
				t.Errorf("%s %v: component sum %.4f != evaluate %.4f", name, s.Res, got, want)
			}
		}
	}
}

func TestComponentEnergyHighlights(t *testing.T) {
	p := pipeline.DefaultPlatform()
	m := Default()
	s := pipeline.Planar(units.FHD, 60, 30)
	load := LoadOf(p, s)
	base, _ := pipeline.Conventional(p, s)
	full, _ := core.BurstLink(p, s)
	cb := m.ComponentEnergy(base, load)
	cf := m.ComponentEnergy(full, load)

	// The panel dominates both schemes (it must keep glowing).
	if cb[soc.Panel] <= cb[soc.Cores] || cf[soc.Panel] <= cf[soc.Uncore] {
		t.Fatal("panel should dominate component energy")
	}
	// BurstLink's biggest cut is the uncore (no more C0/C2 camping).
	if cf[soc.Uncore] >= cb[soc.Uncore]/3 {
		t.Fatalf("uncore energy %v not well below baseline %v", cf[soc.Uncore], cb[soc.Uncore])
	}
	// DRAM energy collapses too.
	if cf[soc.DRAMDev] >= cb[soc.DRAMDev]/2 {
		t.Fatalf("DRAM energy %v not well below baseline %v", cf[soc.DRAMDev], cb[soc.DRAMDev])
	}
	// Panel energy is essentially unchanged (same pixels lit).
	ratio := float64(cf[soc.Panel]) / float64(cb[soc.Panel])
	if ratio < 0.95 || ratio > 1.1 {
		t.Fatalf("panel ratio = %.3f, want ~1", ratio)
	}
}

// ComponentEnergy below is the per-component energy split, the oracle
// TestComponentEnergyConservation checks Evaluate against; no figure
// reports energy per component.

// ComponentEnergy attributes a timeline's energy to individual platform
// components — the bottom-up view behind Fig 8's rail-level measurements.
// Special keys extend the component set:
//
//   - soc.DRAMDev additionally carries the bandwidth-proportional
//     operating energy;
//   - soc.Panel carries the resolution scaling and the panel-side half of
//     the burst premium;
//   - soc.EDPHost carries the host-side half of the burst premium;
//   - soc.Graphics carries the GPU projection premium;
//   - transition energy is attributed to soc.Uncore (the PMU/fabric do
//     the work of state changes).
//
// The attribution is exact: summing the map reproduces Evaluate's energy
// (asserted by TestComponentEnergyConservation).
func (m Model) ComponentEnergy(tl trace.Timeline, load Load) map[soc.Component]units.Energy {
	out := make(map[soc.Component]units.Energy, len(m.Comp))
	cfg := m.dramConfig()
	for _, ph := range tl.Phases {
		if ph.Duration <= 0 {
			continue
		}
		sec := ph.Duration.Seconds()
		factor := 0.0
		boost := ph.Boost
		if boost < 1 {
			boost = 1
		}
		if eff := load.Demand * boost; eff > 1 && isActiveState(ph.State) {
			factor = math.Pow(load.Demand, m.DVFSExp)*boost*boost - 1
		}
		for c, states := range m.Comp {
			p := states[ph.State]
			switch c {
			case soc.Panel:
				p = m.panelPower(ph.State, load)
			default:
				if factor > 0 && isActiveComponent(c) {
					p += units.Power(float64(p) * factor)
				}
			}
			out[c] += units.EnergyOver(p, ph.Duration)
		}
		read := units.BytesPerSecond(float64(ph.DRAMRead) / sec)
		write := units.BytesPerSecond(float64(ph.DRAMWrite) / sec)
		out[soc.DRAMDev] += units.EnergyOver(cfg.OperatingPower(read, write), ph.Duration)
		if ph.EDPBurst {
			out[soc.EDPHost] += units.EnergyOver(m.BurstExtra/2, ph.Duration)
			out[soc.Panel] += units.EnergyOver(m.BurstExtra-m.BurstExtra/2, ph.Duration)
		}
		if ph.GPUActive {
			g := float64(m.GPUExtra)
			if load.Demand > 1 {
				g *= math.Pow(load.Demand, m.DVFSExp)
			}
			out[soc.Graphics] += units.EnergyOver(units.Power(g), ph.Duration)
		}
	}
	out[soc.Uncore] += m.transitionEnergy(tl)
	return out
}

// isActiveComponent reports whether DVFS scaling applies to the
// component.
func isActiveComponent(c soc.Component) bool {
	for _, a := range activeComponents {
		if a == c {
			return true
		}
	}
	return false
}
