// Package trace records and analyzes package C-state timelines. A Timeline
// is the simulator's counterpart to the paper's VTune residency counters
// (§5.3): the power model folds a timeline into residencies R_Ci and
// per-state transition counts, and the examples render timelines as ASCII
// charts mirroring the paper's Figs 3, 6, and 7.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"burstlink/internal/soc"
	"burstlink/internal/units"
)

// Phase is one contiguous interval spent in a single package C-state,
// annotated with the DRAM traffic and link mode active during it — the
// quantities the power model needs beyond the bare state.
type Phase struct {
	State    soc.PackageCState
	Duration time.Duration
	// DRAMRead and DRAMWrite are bytes moved to/from main memory during
	// the phase; they drive DRAM operating power (§5.2).
	DRAMRead, DRAMWrite units.ByteSize
	// EDPBurst marks the eDP link running at maximum bandwidth rather
	// than panel pixel rate; burst mode costs extra link power (Table 2's
	// elevated BurstLink state powers).
	EDPBurst bool
	// GPUActive marks the graphics engine busy (VR projective
	// transformation, §2.4); the power model adds the GPU's active power
	// on top of the package-state base.
	GPUActive bool
	// Boost scales the active-IP power of the phase beyond the
	// workload's DVFS demand (race-to-sleep frequency boosting, §6.4).
	// Zero or one means no boost.
	Boost float64
	// Label annotates what the pipeline was doing, e.g. "decode", "PSR".
	Label string
}

// Timeline is an ordered sequence of phases.
type Timeline struct {
	Phases []Phase
}

// Add appends a phase; zero-duration phases are dropped.
func (t *Timeline) Add(p Phase) {
	if p.Duration <= 0 {
		return
	}
	t.Phases = append(t.Phases, p)
}

// AddState appends a bare phase with no DRAM traffic.
func (t *Timeline) AddState(s soc.PackageCState, d time.Duration, label string) {
	t.Add(Phase{State: s, Duration: d, Label: label})
}

// Total returns the wall time the timeline covers.
func (t Timeline) Total() time.Duration {
	var sum time.Duration
	for _, p := range t.Phases {
		sum += p.Duration
	}
	return sum
}

// Append concatenates other onto t.
func (t *Timeline) Append(other Timeline) {
	t.Phases = append(t.Phases, other.Phases...)
}

// Clone returns a deep copy of the timeline (Phase is a value struct,
// so copying the slice copies everything). memo.Do recognizes this
// method and returns clones instead of cache-resident originals — the
// deep-copy-on-get guard — so memoized period timelines can never be
// poisoned through a caller-held alias.
func (t Timeline) Clone() Timeline {
	return Timeline{Phases: append([]Phase(nil), t.Phases...)}
}

// Repeat returns a timeline of t repeated n times.
func (t Timeline) Repeat(n int) Timeline {
	out := Timeline{Phases: make([]Phase, 0, len(t.Phases)*n)}
	for i := 0; i < n; i++ {
		out.Phases = append(out.Phases, t.Phases...)
	}
	return out
}

// Residency returns the fraction of total time spent in each package
// C-state that appears in the timeline. Fractions sum to 1 (for a
// non-empty timeline).
func (t Timeline) Residency() map[soc.PackageCState]float64 {
	total := t.Total()
	out := make(map[soc.PackageCState]float64)
	if total <= 0 {
		return out
	}
	for _, p := range t.Phases {
		out[p.State] += float64(p.Duration) / float64(total)
	}
	return out
}

// Entries counts how many times each state is entered (transitions into
// the state from a different one). The power model charges entry/exit
// latency energy per entry (§5.2).
func (t Timeline) Entries() map[soc.PackageCState]int {
	out := make(map[soc.PackageCState]int)
	prev := soc.PackageCState(-1)
	for _, p := range t.Phases {
		if p.State != prev {
			out[p.State]++
			prev = p.State
		}
	}
	return out
}

// DRAMTraffic sums all DRAM reads and writes over the timeline.
func (t Timeline) DRAMTraffic() (read, write units.ByteSize) {
	for _, p := range t.Phases {
		read += p.DRAMRead
		write += p.DRAMWrite
	}
	return read, write
}

// DeepestState returns the deepest state reached, or C0 for an empty
// timeline.
func (t Timeline) DeepestState() soc.PackageCState {
	deepest := soc.C0
	for _, p := range t.Phases {
		if p.State.DeeperThan(deepest) {
			deepest = p.State
		}
	}
	return deepest
}

// String renders a compact one-line summary such as
// "C0(9.0%) C2(11.0%) C8(80.0%)" ordered by state depth.
func (t Timeline) String() string {
	res := t.Residency()
	states := make([]soc.PackageCState, 0, len(res))
	for s := range res {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	parts := make([]string, len(states))
	for i, s := range states {
		parts[i] = fmt.Sprintf("%v(%.1f%%)", s, res[s]*100)
	}
	return strings.Join(parts, " ")
}

// ASCII renders the timeline as a fixed-width bar of state labels, the
// textual analogue of the paper's Figs 3/6/7. width is the number of
// character cells; each cell shows the state active at its midpoint.
func (t Timeline) ASCII(width int) string {
	total := t.Total()
	if total <= 0 || width <= 0 {
		return ""
	}
	var b strings.Builder
	cell := total / time.Duration(width)
	idx, elapsed := 0, time.Duration(0)
	for i := 0; i < width; i++ {
		mid := cell*time.Duration(i) + cell/2
		for idx < len(t.Phases)-1 && elapsed+t.Phases[idx].Duration <= mid {
			elapsed += t.Phases[idx].Duration
			idx++
		}
		b.WriteString(cellGlyph(t.Phases[idx].State))
	}
	return b.String()
}

func cellGlyph(s soc.PackageCState) string {
	switch s {
	case soc.C0:
		return "0"
	case soc.C2:
		return "2"
	case soc.C3:
		return "3"
	case soc.C6:
		return "6"
	case soc.C7:
		return "7"
	case soc.C7Prime:
		return "'"
	case soc.C8:
		return "8"
	case soc.C9:
		return "9"
	case soc.C10:
		return "X"
	}
	return "?"
}
