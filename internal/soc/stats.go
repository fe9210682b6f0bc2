package soc

import (
	"time"

	"burstlink/internal/sim"
)

// ComponentTracker accumulates per-component residency (time spent in
// each CompState) from PMU component-change notifications — the
// simulator's counterpart to per-rail measurement (Fig 8's V_Core /
// V_GFX / V_SA breakdown).
//
// Attach with:
//
//	tr := soc.NewComponentTracker(eng)
//	pmu.ListenComponents(tr.OnChange)
type ComponentTracker struct {
	eng     *sim.Engine
	current map[Component]CompState
	since   map[Component]time.Duration
	acc     map[Component]map[CompState]time.Duration
}

// NewComponentTracker builds a tracker; components start as CompActive
// (the PMU's reset assumption) at the engine's current time.
func NewComponentTracker(eng *sim.Engine) *ComponentTracker {
	return &ComponentTracker{
		eng:     eng,
		current: make(map[Component]CompState),
		since:   make(map[Component]time.Duration),
		acc:     make(map[Component]map[CompState]time.Duration),
	}
}

// OnChange is the PMU listener entry point.
func (t *ComponentTracker) OnChange(c Component, s CompState) {
	t.accrue(c)
	t.current[c] = s
}

func (t *ComponentTracker) accrue(c Component) {
	now := t.eng.Now()
	cur, ok := t.current[c]
	if !ok {
		cur = CompActive
	}
	if t.acc[c] == nil {
		t.acc[c] = make(map[CompState]time.Duration)
	}
	t.acc[c][cur] += now - t.since[c]
	t.since[c] = now
}

// Snapshot accrues all components up to the engine's current time so
// ActiveFraction reflects the present instant.
func (t *ComponentTracker) Snapshot() {
	for c := range t.current {
		t.accrue(c)
	}
}

// ActiveFraction returns the fraction of the tracked interval component c
// spent in CompActive.
func (t *ComponentTracker) ActiveFraction(c Component) float64 {
	var total, active time.Duration
	for s, d := range t.acc[c] {
		total += d
		if s == CompActive {
			active += d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(active) / float64(total)
}
