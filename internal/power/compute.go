package power

import (
	"math"
	"sort"
	"time"

	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// Load captures the scenario-level scaling inputs of the model: the DVFS
// demand factor for active silicon and the panel pixel ratio relative to
// FHD.
type Load struct {
	// Demand is Scenario.DemandScale: (pixels·fps / FHD·30)^ThroughputExp.
	Demand float64
	// PanelRatio is display pixels / FHD pixels (raw, unexponentiated).
	PanelRatio float64
}

// LoadOf derives the Load for a scenario on a platform.
func LoadOf(p pipeline.Platform, s pipeline.Scenario) Load {
	return Load{
		Demand:     s.DemandScale(p),
		PanelRatio: float64(s.Res.Pixels()) / float64(units.FHD.Pixels()),
	}
}

// isActiveState reports whether DVFS scaling applies in the state.
func isActiveState(st soc.PackageCState) bool { return st <= soc.C7Prime }

// panelPower returns the panel component power at the load's resolution.
func (m Model) panelPower(st soc.PackageCState, load Load) units.Power {
	p := m.Comp[soc.Panel][st]
	if load.PanelRatio > 0 && load.PanelRatio != 1 {
		p = units.Power(float64(p) * math.Pow(load.PanelRatio, m.PanelExp))
	}
	return p
}

// PhasePower returns the average system power during one timeline phase
// under the given load.
func (m Model) PhasePower(ph trace.Phase, load Load) units.Power {
	p := m.StatePower(ph.State)
	// Panel resolution scaling replaces the base panel row.
	p += m.panelPower(ph.State, load) - m.Comp[soc.Panel][ph.State]
	boost := ph.Boost
	if boost < 1 {
		boost = 1
	}
	if eff := load.Demand * boost; eff > 1 && isActiveState(ph.State) {
		// Frequency boosting costs superlinearly (voltage scaling), so a
		// race-to-sleep boost is charged at boost^2 on top of the DVFS
		// demand factor.
		factor := math.Pow(load.Demand, m.DVFSExp)*boost*boost - 1
		for _, c := range activeComponents {
			p += units.Power(float64(m.Comp[c][ph.State]) * factor)
		}
	}
	// DRAM operating power from the phase's actual traffic.
	if ph.Duration > 0 {
		sec := ph.Duration.Seconds()
		read := units.BytesPerSecond(float64(ph.DRAMRead) / sec)
		write := units.BytesPerSecond(float64(ph.DRAMWrite) / sec)
		p += m.dramConfig().OperatingPower(read, write)
	}
	if ph.EDPBurst {
		p += m.BurstExtra
	}
	if ph.GPUActive {
		g := float64(m.GPUExtra)
		if load.Demand > 1 {
			g *= math.Pow(load.Demand, m.DVFSExp)
		}
		p += units.Power(g)
	}
	return p
}

// Result summarizes the model's output for a timeline.
type Result struct {
	// Average is Power_avg over the timeline (the paper's headline
	// quantity).
	Average units.Power
	// Energy is the total energy over the timeline duration.
	Energy units.Energy
	// Transitions is the energy charged to state entry/exit latencies.
	Transitions units.Energy
	// Duration is the timeline length.
	Duration time.Duration
}

// Evaluate folds a timeline into average power and energy under the given
// load.
func (m Model) Evaluate(tl trace.Timeline, load Load) Result {
	var energy units.Energy
	for _, ph := range tl.Phases {
		energy += units.EnergyOver(m.PhasePower(ph, load), ph.Duration)
	}
	transit := m.transitionEnergy(tl)
	energy += transit
	total := tl.Total()
	return Result{
		Average:     units.AveragePower(energy, total),
		Energy:      energy,
		Transitions: transit,
		Duration:    total,
	}
}

// transitionEnergy charges the P_en·Lat_en + P_ex·Lat_ex terms per state
// entry.
func (m Model) transitionEnergy(tl trace.Timeline) units.Energy {
	return m.transitionEnergyOf(tl.Entries())
}

// transitionEnergyOf charges transition energy from precomputed
// state-entry counts (shared by Evaluate and ExtendPeriod so both fold
// the same terms in the same order).
func (m Model) transitionEnergyOf(entries map[soc.PackageCState]int) units.Energy {
	// Charge states in sorted order: float accumulation in map iteration
	// order would wobble the low bits run to run (determcheck).
	states := make([]soc.PackageCState, 0, len(entries))
	for st := range entries {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	var e units.Energy
	for _, st := range states {
		if st == soc.C0 {
			continue
		}
		lat := m.Latencies[st]
		e += units.EnergyOver(m.TransitPower, time.Duration(entries[st])*(lat.Enter+lat.Exit))
	}
	return e
}

// Breakdown splits a timeline's energy into the paper's three categories
// (Figs 1 and 10): DRAM (device background + operating), Display (panel,
// plus the panel-side half of burst-mode link power), and Others
// (processor, network, storage, transitions).
type Breakdown struct {
	DRAM, Display, Others units.Energy
}

// Total returns the summed energy.
func (b Breakdown) Total() units.Energy { return b.DRAM + b.Display + b.Others }

// BreakdownOf computes the component-category energy split for a
// timeline.
func (m Model) BreakdownOf(tl trace.Timeline, load Load) Breakdown {
	var b Breakdown
	cfg := m.dramConfig()
	for _, ph := range tl.Phases {
		sec := ph.Duration.Seconds()
		if sec <= 0 {
			continue
		}
		total := m.PhasePower(ph, load)

		dramP := m.Comp[soc.DRAMDev][ph.State]
		read := units.BytesPerSecond(float64(ph.DRAMRead) / sec)
		write := units.BytesPerSecond(float64(ph.DRAMWrite) / sec)
		dramP += cfg.OperatingPower(read, write)

		dispP := m.panelPower(ph.State, load)
		if ph.EDPBurst {
			// Half the burst premium is panel-side (receiver + DRFB
			// write path, §4.4).
			dispP += m.BurstExtra / 2
		}

		b.DRAM += units.EnergyOver(dramP, ph.Duration)
		b.Display += units.EnergyOver(dispP, ph.Duration)
		b.Others += units.EnergyOver(total-dramP-dispP, ph.Duration)
	}
	b.Others += m.transitionEnergy(tl)
	return b
}
