package soc

import (
	"testing"

	"burstlink/internal/sim"
)

func TestAllPowerGated(t *testing.T) {
	cs := AllPowerGated()
	for _, c := range Components() {
		want := CompPowerGated
		if c == AlwaysOn {
			want = CompActive
		}
		if cs.Get(c) != want {
			t.Fatalf("%v = %v, want %v", c, cs.Get(c), want)
		}
	}
	if Resolve(cs) != C10 {
		t.Fatalf("all-gated resolves to %v, want C10", Resolve(cs))
	}
}

// Valid reports whether c is a defined package C-state.
func (c PackageCState) Valid() bool { return c >= C0 && c <= C10 }

func TestPackageCStateValid(t *testing.T) {
	for _, c := range All() {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
	if PackageCState(-1).Valid() || PackageCState(99).Valid() {
		t.Fatal("out-of-range states should be invalid")
	}
}

func TestFirmwareNamesAndAccessors(t *testing.T) {
	if (StockFirmware{}).Name() != "stock" {
		t.Fatal("stock firmware name wrong")
	}
	var eng sim.Engine
	pmu := NewPMU(&eng, nil)
	if pmu.fw.Name() != "stock" {
		t.Fatal("PMU default firmware should be stock")
	}
	pmu.SetComponent(VideoDec, CompClockGated)
	if pmu.comps.Get(VideoDec) != CompClockGated {
		t.Fatal("component accessor wrong")
	}
	if pmu.comps.Get(WiFi) != CompActive {
		t.Fatal("unset component should default to active")
	}
}
