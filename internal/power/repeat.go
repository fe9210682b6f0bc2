package power

import (
	"sort"
	"time"

	"burstlink/internal/memo"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// This file is the power-integration segment of the delta-simulation
// core (DESIGN.md §4.9). A session timeline is one period repeated
// frames times, so evaluating it phase by phase does frames×k identical
// PhasePower compositions over a frames×k-phase slice that exists only
// to be folded. PeriodEval precomputes everything the fold needs from
// one period — per-phase energies, the period duration, and the
// state-entry counts of a first and a subsequent repetition — and
// ExtendPeriod replays the fold over the precomputed energies in the
// exact order Evaluate(tl.Repeat(n)) would have summed them. The result
// is bit-identical to the full expansion (repeat_test.go pins ==) with
// no timeline materialization and no per-phase model composition, and
// PeriodEval is the memoizable unit: it depends on (timeline, load,
// model) but not on the repetition count, so every sweep cell that
// varies only seconds or bitrate reuses it.

// PeriodEval is the precomputed per-period power evaluation: the
// memoized output of the power-integration segment. Values are
// immutable once built (the segment cache aliases them across
// concurrent sweep cells).
type PeriodEval struct {
	// PhaseEnergy is each phase's energy under the load, in timeline
	// order — the exact terms Evaluate would fold.
	PhaseEnergy []units.Energy
	// Period is the timeline's total duration.
	Period time.Duration
	// FirstEntries counts state entries of the first repetition (no
	// predecessor); RestEntries counts entries of every subsequent
	// repetition, whose first phase follows the period's last phase.
	// Entries of n repetitions = FirstEntries + (n-1)·RestEntries.
	FirstEntries, RestEntries map[soc.PackageCState]int
}

// periodKey is the canonical input of the power-integration segment:
// the timeline content (not the scheme that generated it), the load,
// and the model.
type periodKey struct {
	Timeline trace.Timeline
	Load     Load
	Model    Model
}

// AppendKey renders the segment input into its canonical key.
func (k periodKey) AppendKey(w *memo.KeyWriter) {
	w.Sub("timeline", k.Timeline)
	w.Sub("load", k.Load)
	w.Sub("model", k.Model)
}

// AppendKey renders the load into a canonical segment key.
func (l Load) AppendKey(w *memo.KeyWriter) {
	w.Float("demand", l.Demand)
	w.Float("panel", l.PanelRatio)
}

// AppendKey renders the calibrated model into a canonical segment key.
// Map-typed fields are written in sorted key order so equal models hash
// identically regardless of map internals.
func (m Model) AppendKey(w *memo.KeyWriter) {
	comps := make([]soc.Component, 0, len(m.Comp))
	for c := range m.Comp {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	w.Int("comps", int64(len(comps)))
	for _, c := range comps {
		w.Int("comp", int64(c))
		states := make([]soc.PackageCState, 0, len(m.Comp[c]))
		for st := range m.Comp[c] {
			states = append(states, st)
		}
		sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
		for _, st := range states {
			w.Int("state", int64(st))
			w.Float("power", float64(m.Comp[c][st]))
		}
	}
	w.Sub("dram", m.DRAM)
	w.Float("burstextra", float64(m.BurstExtra))
	w.Float("gpuextra", float64(m.GPUExtra))
	w.Float("dvfsexp", m.DVFSExp)
	w.Float("panelexp", m.PanelExp)
	w.Float("transit", float64(m.TransitPower))
	lats := make([]soc.PackageCState, 0, len(m.Latencies))
	for st := range m.Latencies {
		lats = append(lats, st)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	w.Int("lats", int64(len(lats)))
	for _, st := range lats {
		w.Int("latstate", int64(st))
		w.Duration("enter", m.Latencies[st].Enter)
		w.Duration("exit", m.Latencies[st].Exit)
	}
}

// EvaluatePeriod precomputes the repeated-evaluation invariants of one
// period timeline under the given load.
func (m Model) EvaluatePeriod(tl trace.Timeline, load Load) PeriodEval {
	pe := PeriodEval{
		PhaseEnergy:  make([]units.Energy, len(tl.Phases)),
		Period:       tl.Total(),
		FirstEntries: make(map[soc.PackageCState]int),
		RestEntries:  make(map[soc.PackageCState]int),
	}
	for i, ph := range tl.Phases {
		pe.PhaseEnergy[i] = units.EnergyOver(m.PhasePower(ph, load), ph.Duration)
	}
	countEntries(pe.FirstEntries, tl.Phases, soc.PackageCState(-1))
	if len(tl.Phases) > 0 {
		countEntries(pe.RestEntries, tl.Phases, tl.Phases[len(tl.Phases)-1].State)
	}
	return pe
}

// countEntries accumulates state-entry counts of one walk over phases
// starting from the given predecessor state.
func countEntries(out map[soc.PackageCState]int, phases []trace.Phase, prev soc.PackageCState) {
	for _, p := range phases {
		if p.State != prev {
			out[p.State]++
			prev = p.State
		}
	}
}

// ExtendPeriod folds a precomputed period evaluation over n repetitions,
// bit-identical to Evaluate(tl.Repeat(n), load): the energy fold visits
// the per-phase terms in the same order and the transition charge uses
// the exact entry counts of the repeated timeline.
func (m Model) ExtendPeriod(pe PeriodEval, n int) Result {
	if n < 0 {
		n = 0
	}
	var energy units.Energy
	for r := 0; r < n; r++ {
		for _, e := range pe.PhaseEnergy {
			energy += e
		}
	}
	entries := make(map[soc.PackageCState]int, len(pe.FirstEntries))
	if n > 0 {
		for st, c := range pe.FirstEntries {
			entries[st] += c
		}
		for st, c := range pe.RestEntries {
			entries[st] += (n - 1) * c
		}
	}
	transit := m.transitionEnergyOf(entries)
	energy += transit
	total := pe.Period * time.Duration(n)
	return Result{
		Average:     units.AveragePower(energy, total),
		Energy:      energy,
		Transitions: transit,
		Duration:    total,
	}
}

// EvaluatePeriodMemo is EvaluatePeriod through the segment cache: the
// evaluation is keyed by (timeline content, load, model), so any two
// callers that price the same period share one computation. A nil or
// disabled cache computes directly.
func (m Model) EvaluatePeriodMemo(c *memo.Cache, tl trace.Timeline, load Load) PeriodEval {
	pe, _ := memo.Do(c, "power-period", periodKey{Timeline: tl, Load: load, Model: m},
		func() (PeriodEval, error) { return m.EvaluatePeriod(tl, load), nil })
	return pe
}

// EvaluateMemo is Evaluate through the segment cache — the one-period
// form the experiment drivers use. Bit-identical to Evaluate(tl, load).
func (m Model) EvaluateMemo(c *memo.Cache, tl trace.Timeline, load Load) Result {
	return m.ExtendPeriod(m.EvaluatePeriodMemo(c, tl, load), 1)
}
