package edp

import (
	"testing"

	"burstlink/internal/units"
)

func TestPanelCapabilityProfiles(t *testing.T) {
	conv := ConventionalPanelCaps()
	if !conv.PSR || conv.PSR2 || conv.DRFB {
		t.Fatalf("conventional caps = %+v", conv)
	}
	if conv.SupportsBursting() || conv.SupportsWindowed() {
		t.Fatal("conventional panel should not support BurstLink modes")
	}
	bl := BurstLinkPanelCaps()
	if !bl.SupportsBursting() || !bl.SupportsWindowed() {
		t.Fatalf("burstlink caps = %+v", bl)
	}
	if bl.MaxLinkRate != EDP14().MaxBandwidth() {
		t.Fatal("burstlink panel should advertise eDP 1.4 rates")
	}
}

func TestNegotiatedBurstRate(t *testing.T) {
	bl := BurstLinkPanelCaps()
	if got := bl.NegotiatedBurstRate(EDP14()); got != EDP14().MaxBandwidth() {
		t.Fatalf("matched ends = %v", got)
	}
	// Slower panel limits.
	bl.MaxLinkRate = 10 * units.Gbps
	if got := bl.NegotiatedBurstRate(EDP14()); got != 10*units.Gbps {
		t.Fatalf("panel-limited = %v", got)
	}
	// No DRFB: no bursting at any rate.
	if ConventionalPanelCaps().NegotiatedBurstRate(EDP14()) != 0 {
		t.Fatal("no DRFB should negotiate zero")
	}
}

func TestLinkAccessors(t *testing.T) {
	l := NewLink(EDP14(), 3*units.Gbps)
	if l.cfg.Lanes != 4 {
		t.Fatal("config accessor wrong")
	}
	if l.Mode() != PixelPaced || l.state != LinkOn {
		t.Fatal("initial mode/state wrong")
	}
	l.rate = 6 * units.Gbps
	if l.EffectiveRate() != 6*units.Gbps {
		t.Fatalf("pixel rate update not applied: %v", l.EffectiveRate())
	}
}
