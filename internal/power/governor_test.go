package power

import (
	"testing"
	"time"

	"burstlink/internal/soc"
	"burstlink/internal/units"
)

// The break-even rule and the PMU policy built on it below are
// test-only: the simulators' firmware demotes on hardware conditions
// (soc.Resolve plus the stock and BurstLink clamps), and no binary,
// figure or benchmark installs a break-even governor.

// BreakEven returns the minimum residency in the deeper state for which
// entering it from the shallower state saves energy, given the deeper
// state's entry+exit cost — the classic PM-governor quantity. The PMU
// only demotes to a deep state when the expected idle period exceeds this
// (which is why the measured baseline of Table 2 parks in C8 rather than
// C9 between chunk fetches: the C9 break-even exceeds a chunk gap).
func (m Model) BreakEven(shallow, deep soc.PackageCState) time.Duration {
	ps, pd := m.StatePower(shallow), m.StatePower(deep)
	if pd >= ps {
		return time.Duration(1<<63 - 1) // never pays off
	}
	lat := m.Latencies[deep]
	cost := units.EnergyOver(m.TransitPower, lat.Enter+lat.Exit)
	saving := ps - pd // mW
	sec := float64(cost) / float64(saving)
	return time.Duration(sec * float64(time.Second))
}

// WorthEntering reports whether an idle period of length d justifies
// entering deep from shallow.
func (m Model) WorthEntering(shallow, deep soc.PackageCState, d time.Duration) bool {
	return d > m.BreakEven(shallow, deep)
}

// governedFirmware is a PMU policy that demotes the package only when the
// expected idle period justifies the target state's entry/exit cost — the
// break-even rule real Pcode applies. It explains the measured behaviour
// the paper's Table 2 captures: between DC chunk fetches the baseline
// parks at C8 (sub-millisecond gaps never amortize a C9 entry), while
// BurstLink's DRFB creates multi-millisecond idle periods that do.
type governedFirmware struct {
	// ExpectedIdle predicts how long the package will stay idle; the
	// display pipeline knows this from its frame schedule.
	ExpectedIdle func() time.Duration
	// BreakEven returns the minimum residency that justifies entering
	// the state.
	BreakEven func(s soc.PackageCState) time.Duration
}

// Name implements soc.Firmware.
func (governedFirmware) Name() string { return "governed-pcode" }

// Clamp implements soc.Firmware: walk up from the resolved state until
// the expected idle period covers the break-even time.
func (f governedFirmware) Clamp(resolved soc.PackageCState) soc.PackageCState {
	if f.ExpectedIdle == nil || f.BreakEven == nil {
		return resolved
	}
	idle := f.ExpectedIdle()
	order := []soc.PackageCState{soc.C0, soc.C2, soc.C3, soc.C6, soc.C7, soc.C7Prime, soc.C8, soc.C9, soc.C10}
	// Find the resolved state's position and demote as needed.
	for i := len(order) - 1; i > 0; i-- {
		s := order[i]
		if s > resolved {
			continue
		}
		if idle > f.BreakEven(s) {
			return s
		}
	}
	return soc.C0
}

// TestGovernorDemotionLadder wires the break-even rule into the governed
// firmware: the deeper the state, the longer the idle period needed to
// justify its entry/exit cost, so as the expected idle shrinks the
// governor walks down the ladder C9 → C8 → C7' → C0. (The baseline's
// mid-stream C8 camping itself is hardware-conditioned — the DC stays on —
// which soc.Resolve already enforces; the governor covers the PMU's
// residual freedom.)
func TestGovernorDemotionLadder(t *testing.T) {
	m := Default()
	idle := time.Duration(0)
	fw := governedFirmware{
		ExpectedIdle: func() time.Duration { return idle },
		BreakEven: func(s soc.PackageCState) time.Duration {
			// Break-even vs. the shallow-idle alternative (C2).
			return m.BreakEven(soc.C2, s)
		},
	}

	be9 := m.BreakEven(soc.C2, soc.C9)
	be8 := m.BreakEven(soc.C2, soc.C8)
	be7p := m.BreakEven(soc.C2, soc.C7Prime)
	if !(be9 > be8 && be8 > be7p && be7p > 0) {
		t.Fatalf("break-even ladder broken: C9 %v, C8 %v, C7' %v", be9, be8, be7p)
	}

	// Long idle: the deepest permitted state.
	idle = time.Millisecond
	if got := fw.Clamp(soc.C9); got != soc.C9 {
		t.Fatalf("long idle clamp = %v, want C9", got)
	}
	// Idle between the C8 and C9 break-evens: C8.
	idle = (be8 + be9) / 2
	if got := fw.Clamp(soc.C9); got != soc.C8 {
		t.Fatalf("mid idle clamp = %v, want C8 (be8 %v, be9 %v)", got, be8, be9)
	}
	// Idle between C7' and C8 break-evens: C7'.
	idle = (be7p + be8) / 2
	if got := fw.Clamp(soc.C9); got != soc.C7Prime {
		t.Fatalf("short idle clamp = %v, want C7'", got)
	}
	// Sub-break-even idle: stay awake.
	idle = be7p / 8
	if got := fw.Clamp(soc.C9); got != soc.C0 {
		t.Fatalf("tiny idle clamp = %v, want C0", got)
	}
	// Never promotes beyond the hardware-resolved state.
	idle = time.Second
	if got := fw.Clamp(soc.C2); got > soc.C2 {
		t.Fatalf("clamp exceeded resolved state: %v", got)
	}
}

// TestGovernorSyntheticLadder is the clamp walk on a synthetic ladder:
// deeper states need 100 µs per depth.
func TestGovernorSyntheticLadder(t *testing.T) {
	fw := governedFirmware{
		ExpectedIdle: func() time.Duration { return time.Millisecond },
		BreakEven: func(s soc.PackageCState) time.Duration {
			return time.Duration(int(s)) * 100 * time.Microsecond
		},
	}
	// 1 ms idle justifies everything up to C9 (break-even 700 µs) but a
	// resolved C8 caps the walk.
	if got := fw.Clamp(soc.C9); got != soc.C9 {
		t.Fatalf("clamp(C9) = %v", got)
	}
	if got := fw.Clamp(soc.C8); got != soc.C8 {
		t.Fatalf("clamp(C8) = %v", got)
	}
	// 150 µs idle only justifies C2-depth states.
	fw.ExpectedIdle = func() time.Duration { return 150 * time.Microsecond }
	if got := fw.Clamp(soc.C9); got != soc.C2 {
		t.Fatalf("short-idle clamp = %v, want C2", got)
	}
}

func TestGovernorPassthroughWithoutCallbacks(t *testing.T) {
	fw := governedFirmware{}
	if fw.Clamp(soc.C9) != soc.C9 {
		t.Fatal("unset governor should pass through")
	}
	if fw.Name() == "" {
		t.Fatal("governor needs a name")
	}
}
