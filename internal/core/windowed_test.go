package core

import (
	"testing"
	"time"

	"burstlink/internal/edp"
	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

func windowedCfg() WindowedConfig {
	return WindowedConfig{
		Scenario: pipeline.Planar(units.FHD, 60, 30),
		Region:   edp.Rect{X: 320, Y: 180, W: 1280, H: 720},
	}
}

func TestWindowedValidate(t *testing.T) {
	good := windowedCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Region = edp.Rect{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty region should fail")
	}
	bad = good
	bad.Region.X = 1900
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-bounds region should fail")
	}
	bad = good
	bad.Scenario.VR = true
	bad.Scenario.VRSource = units.R4K
	if err := bad.Validate(); err == nil {
		t.Fatal("windowed VR should fail (§4.1: VR is full-screen)")
	}
}

func TestWindowedTimeline(t *testing.T) {
	p := pipeline.DefaultPlatform()
	c := windowedCfg()
	tl, err := Windowed(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if absDur(tl.Total()-c.Scenario.Period()) > time.Microsecond {
		t.Fatalf("total = %v, want period", tl.Total())
	}
	// The windowed flow must reach C9 and be cheaper in active time than
	// full-screen BurstLink (the region is 4/9 of the panel).
	full, _ := BurstLink(p, c.Scenario)
	if timeIn(tl, soc.C9) <= timeIn(full, soc.C9) {
		t.Fatal("windowed flow should idle longer than full-screen")
	}
	if timeIn(tl, soc.C7) >= timeIn(full, soc.C7) {
		t.Fatal("windowed decode should be shorter than full-screen")
	}
}

func TestWindowedRegionFraction(t *testing.T) {
	c := windowedCfg()
	want := float64(1280*720) / float64(1920*1080)
	if got := c.RegionFraction(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("fraction = %v, want %v", got, want)
	}
}

func TestRunWindowedFunctional(t *testing.T) {
	c := WindowedConfig{
		Scenario: pipeline.Scenario{Res: units.Resolution{Width: 320, Height: 180}, Refresh: 60, FPS: 30, BPP: 24},
		Region:   edp.Rect{X: 80, Y: 45, W: 160, H: 90},
	}
	res, err := RunWindowedFunctional(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tears != 0 {
		t.Fatalf("tears = %d", res.Tears)
	}
	// PSR2 selective updates move only the region, not full frames.
	wantSU := units.ByteSize(20 * 160 * 90 * 3)
	if res.SUBytes != wantSU {
		t.Fatalf("SU bytes = %v, want %v", res.SUBytes, wantSU)
	}
	if res.SUBytes*4 > res.FullFrames {
		t.Fatalf("selective updates %v should be ≪ full frames %v", res.SUBytes, res.FullFrames)
	}
}

func TestRunWindowedFunctionalValidation(t *testing.T) {
	if _, err := RunWindowedFunctional(windowedCfg(), 0); err == nil {
		t.Fatal("zero frames should fail")
	}
	bad := windowedCfg()
	bad.Region = edp.Rect{}
	if _, err := RunWindowedFunctional(bad, 5); err == nil {
		t.Fatal("invalid config should fail")
	}
}

// windowedDuration is a small helper ensuring analytic windowed timelines
// stay within the frame period.
func windowedDuration(tl trace.Timeline) time.Duration { return tl.Total() }

func TestWindowedDurationHelper(t *testing.T) {
	p := pipeline.DefaultPlatform()
	tl, _ := Windowed(p, windowedCfg())
	if windowedDuration(tl) != tl.Total() {
		t.Fatal("helper mismatch")
	}
}
