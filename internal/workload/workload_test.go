package workload

import (
	"testing"
	"time"

	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/vr"
)

// timeIn returns the total duration tl spends in package state s.
func timeIn(tl trace.Timeline, s soc.PackageCState) time.Duration {
	var sum time.Duration
	for _, p := range tl.Phases {
		if p.State == s {
			sum += p.Duration
		}
	}
	return sum
}

func TestVRScenarioConstruction(t *testing.T) {
	s, err := VRScenario(vr.Rhino, units.VR1080)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.VR || s.VRSource != units.R4K {
		t.Fatalf("scenario = %+v", s)
	}
	if s.Res.Width != 2*1080 || s.Res.Height != 1200 {
		t.Fatalf("both-eye res = %v", s.Res)
	}
	if s.MotionFactor <= 1 {
		t.Fatalf("motion factor = %v, want > 1", s.MotionFactor)
	}
	if _, err := VRScenario(vr.Workload("bogus"), units.VR1080); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestVRMotionFactorsDiffer(t *testing.T) {
	calm, _ := VRScenario(vr.Timelapse, units.VR1080)
	wild, _ := VRScenario(vr.Rollercoaster, units.VR1080)
	if wild.MotionFactor <= calm.MotionFactor {
		t.Fatalf("Rollercoaster %v should exceed Timelapse %v", wild.MotionFactor, calm.MotionFactor)
	}
}

func TestLocalPlaybackScenariosValid(t *testing.T) {
	p := pipeline.DefaultPlatform()
	for _, s := range LocalPlayback() {
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: %v", s.Res, err)
		}
		if _, err := pipeline.Conventional(p, s); err != nil {
			t.Fatalf("%v@%d: baseline underruns: %v", s.Res, s.Refresh, err)
		}
	}
}

func TestUIWorkloadTimelines(t *testing.T) {
	p := pipeline.DefaultPlatform()
	for _, w := range append(Fig14bWorkloads(), WebBrowsing()) {
		for _, res := range []units.Resolution{units.FHD, units.QHD, units.R4K} {
			conv, err := UIConventional(p, w, res, 60)
			if err != nil {
				t.Fatalf("%s %v conv: %v", w.Name, res, err)
			}
			burst, err := UIBurst(p, w, res, 60)
			if err != nil {
				t.Fatalf("%s %v burst: %v", w.Name, res, err)
			}
			// Same wall-time span (same update period and duty cycle).
			if d := conv.Total() - burst.Total(); d < -time.Millisecond || d > time.Millisecond {
				t.Errorf("%s %v: spans differ: %v vs %v", w.Name, res, conv.Total(), burst.Total())
			}
			// Bursting reaches C9; conventional caps at C8.
			if timeIn(burst, soc.C9) == 0 {
				t.Errorf("%s %v: burst never reached C9", w.Name, res)
			}
			if conv.DeepestState() != soc.C8 {
				t.Errorf("%s %v: conventional deepest = %v", w.Name, res, conv.DeepestState())
			}
		}
	}
}

func TestFig14bReductions(t *testing.T) {
	// Fig 14(b): Frame Bursting cuts the four workloads' energy by
	// roughly 27-30% (we accept 15-45% and require positive monotone
	// behaviour in resolution to be checked by the experiment driver).
	p := pipeline.DefaultPlatform()
	m := power.Default()
	for _, w := range Fig14bWorkloads() {
		conv, _ := UIConventional(p, w, units.FHD, 60)
		burst, _ := UIBurst(p, w, units.FHD, 60)
		load := power.Load{Demand: 1, PanelRatio: 1}
		red := 1 - float64(m.Evaluate(burst, load).Average)/float64(m.Evaluate(conv, load).Average)
		if red < 0.10 || red > 0.45 {
			t.Errorf("%s: reduction = %.1f%%, want ~27-30%%", w.Name, red*100)
		}
	}
}

func TestUIWorkloadValidation(t *testing.T) {
	p := pipeline.DefaultPlatform()
	bad := UIWorkload{Name: "bad", UpdateFPS: 120, ActiveFraction: 1}
	if _, err := UIConventional(p, bad, units.FHD, 60); err == nil {
		t.Fatal("update rate above refresh should fail")
	}
	bad = UIWorkload{Name: "bad", UpdateFPS: 30, ActiveFraction: 0}
	if _, err := UIBurst(p, bad, units.FHD, 60); err == nil {
		t.Fatal("zero active fraction should fail")
	}
}

// MixedSequence builds Fig 4's scenario: a stretch of web browsing
// followed by FHD 60FPS video streaming, both on a 60 Hz panel. It
// returns the two segment timelines scaled to the given durations.
func MixedSequence(p pipeline.Platform, browse, stream time.Duration) (trace.Timeline, error) {
	browseTl, err := UIConventional(p, WebBrowsing(), units.FHD, 60)
	if err != nil {
		return trace.Timeline{}, err
	}
	video, err := pipeline.Conventional(p, pipeline.Planar(units.FHD, 60, 60))
	if err != nil {
		return trace.Timeline{}, err
	}
	var out trace.Timeline
	out.Append(browseTl.Repeat(int(browse / browseTl.Total())))
	out.Append(video.Repeat(int(stream / video.Total())))
	return out, nil
}

func TestMixedSequence(t *testing.T) {
	p := pipeline.DefaultPlatform()
	tl, err := MixedSequence(p, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Total() < 3*time.Second {
		t.Fatalf("mixed sequence too short: %v", tl.Total())
	}
	// Streaming phase raises C0 share; both C0 and C8 must appear.
	res := tl.Residency()
	if res[soc.C0] <= 0 || res[soc.C8] <= 0 {
		t.Fatalf("residency = %v", tl.String())
	}
}

func TestPlanarResolutionList(t *testing.T) {
	rs := PlanarResolutions()
	if len(rs) != 4 || rs[0] != units.FHD || rs[3] != units.R5K {
		t.Fatalf("resolutions = %v", rs)
	}
}
