package soc

import (
	"testing"
	"time"

	"burstlink/internal/sim"
)

func TestComponentTracker(t *testing.T) {
	var eng sim.Engine
	pmu := NewPMU(&eng, nil)
	tr := NewComponentTracker(&eng)
	pmu.ListenComponents(tr.OnChange)

	// VD active 0-4ms, gated 4-10ms, active 10-12ms.
	eng.Schedule(0, "start", func() { pmu.SetComponent(VideoDec, CompActive) })
	eng.Schedule(4*time.Millisecond, "gate", func() { pmu.SetComponent(VideoDec, CompPowerGated) })
	eng.Schedule(10*time.Millisecond, "wake", func() { pmu.SetComponent(VideoDec, CompActive) })
	eng.RunUntil(12 * time.Millisecond)
	tr.Snapshot()

	if got := tr.acc[VideoDec][CompActive]; got != 6*time.Millisecond {
		t.Fatalf("active time = %v, want 6ms", got)
	}
	if got := tr.acc[VideoDec][CompPowerGated]; got != 6*time.Millisecond {
		t.Fatalf("gated time = %v, want 6ms", got)
	}
	if f := tr.ActiveFraction(VideoDec); f < 0.49 || f > 0.51 {
		t.Fatalf("active fraction = %v, want 0.5", f)
	}
}

func TestComponentTrackerIgnoresNoopUpdates(t *testing.T) {
	var eng sim.Engine
	pmu := NewPMU(&eng, nil)
	changes := 0
	pmu.ListenComponents(func(Component, CompState) { changes++ })
	pmu.SetComponent(Cores, CompActive) // first explicit set: recorded
	pmu.SetComponent(Cores, CompActive) // no-op
	pmu.SetComponent(Cores, CompActive) // no-op
	if changes != 1 {
		t.Fatalf("changes = %d, want 1 (no-op updates suppressed)", changes)
	}
}

func TestComponentTrackerEmpty(t *testing.T) {
	var eng sim.Engine
	tr := NewComponentTracker(&eng)
	if tr.ActiveFraction(Cores) != 0 {
		t.Fatal("untracked component should report 0")
	}
	if tr.acc[Panel][CompActive] != 0 {
		t.Fatal("untracked time should be 0")
	}
}
