package session

import (
	"testing"
	"time"

	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/units"
)

func env() (pipeline.Platform, power.Model) {
	return pipeline.DefaultPlatform(), power.Default()
}

func TestSessionBaselineVsBurstLink(t *testing.T) {
	p, m := env()
	cfg := Config{Scenario: pipeline.Planar(units.R4K, 60, 60), Seconds: 10}
	results, err := Compare(p, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	base, full := results[0], results[3]
	if base.Scheme != Conventional || full.Scheme != BurstLink {
		t.Fatal("scheme order wrong")
	}
	if full.AvgPower >= base.AvgPower {
		t.Fatalf("BurstLink %v should beat baseline %v", full.AvgPower, base.AvgPower)
	}
	if full.BatteryLife <= base.BatteryLife {
		t.Fatal("BurstLink should extend battery life")
	}
	if full.DRAMWrite != 0 {
		t.Fatalf("BurstLink session writes %v/s to DRAM", full.DRAMWrite)
	}
	if base.DRAMWrite == 0 {
		t.Fatal("baseline session should write frames to DRAM")
	}
	if base.Frames != 600 || full.Frames != 600 {
		t.Fatalf("frames = %d/%d", base.Frames, full.Frames)
	}
	// A healthy network: no stalls on either.
	if base.Stalls != 0 || full.Stalls != 0 {
		t.Fatalf("stalls = %d/%d", base.Stalls, full.Stalls)
	}
	// Energy consistency: energy ≈ avg power × duration.
	wantDur := 10 * time.Second
	gotDur := time.Duration(float64(full.Energy) / float64(full.AvgPower) * float64(time.Second))
	if d := gotDur - wantDur; d < -50*time.Millisecond || d > 50*time.Millisecond {
		t.Fatalf("energy/power duration = %v, want %v", gotDur, wantDur)
	}
}

// TestSessionStallsOnBadNetwork: a frame larger than the jitter buffer
// can never be delivered whole, so a session whose bitrate makes every
// frame overflow the buffer stalls on every frame, while an ordinary
// bitrate on the same steady 1.5x link stalls on none.
func TestSessionStallsOnBadNetwork(t *testing.T) {
	p, m := env()
	eng := Engine{P: p, M: m}
	cfg := Config{Scenario: pipeline.Planar(units.FHD, 60, 30), Scheme: BurstLink, Seconds: 2}
	cfg.Bitrate = 20 * units.Gbps // 83 MB frames against the 64 MB buffer
	r, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stalls != r.Frames {
		t.Fatalf("stalls = %d of %d frames; every oversized frame should stall", r.Stalls, r.Frames)
	}
	cfg.Bitrate = 8 * units.Mbps
	if r, err = eng.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if r.Stalls != 0 {
		t.Fatalf("stalls = %d at 8 Mbit/s", r.Stalls)
	}
}

func TestSessionValidation(t *testing.T) {
	p, m := env()
	if _, err := (Engine{P: p, M: m}).Run(Config{}); err == nil {
		t.Fatal("empty config should fail")
	}
	if _, err := (Engine{P: p, M: m}).Run(Config{Scenario: pipeline.Planar(units.FHD, 60, 30)}); err == nil {
		t.Fatal("zero duration should fail")
	}
}

func TestSessionVR(t *testing.T) {
	p, m := env()
	cfg := Config{
		Scenario: pipeline.Scenario{
			Res: units.Resolution{Width: 2160, Height: 1200}, Refresh: 60, FPS: 60, BPP: 24,
			VR: true, VRSource: units.R4K, MotionFactor: 1.3,
		},
		Scheme:  BurstLink,
		Seconds: 5,
	}
	r, err := Engine{P: p, M: m}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames != 300 || r.AvgPower <= 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestSchemeString(t *testing.T) {
	if Conventional.String() != "conventional" || BurstLink.String() != "burstlink" {
		t.Fatal("names wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Fatal("out-of-range name wrong")
	}
}

func TestParseSchemeRoundTrip(t *testing.T) {
	for _, sch := range Schemes() {
		got, err := ParseScheme(sch.String())
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", sch, err)
		}
		if got != sch {
			t.Fatalf("ParseScheme(%q) = %v, want %v", sch, got, sch)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("unknown scheme should error")
	}
	if _, err := ParseScheme(""); err == nil {
		t.Fatal("empty scheme should error")
	}
}
