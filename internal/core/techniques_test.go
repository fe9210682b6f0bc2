package core

import (
	"errors"
	"testing"
	"time"

	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

func defaults() (pipeline.Platform, pipeline.Scenario) {
	return pipeline.DefaultPlatform(), pipeline.Planar(units.FHD, 60, 30)
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// allSchemes runs every scheduler on the scenario.
func allSchemes(t *testing.T, p pipeline.Platform, s pipeline.Scenario) map[string]trace.Timeline {
	t.Helper()
	out := map[string]trace.Timeline{}
	for name, fn := range map[string]func(pipeline.Platform, pipeline.Scenario) (trace.Timeline, error){
		"burst": BurstOnly, "bypass": BypassOnly, "full": BurstLink,
	} {
		tl, err := fn(p, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tl
	}
	return out
}

func TestTimelinesCoverPeriod(t *testing.T) {
	p := pipeline.DefaultPlatform()
	for _, fps := range []units.FPS{30, 60} {
		for _, r := range []units.Resolution{units.FHD, units.QHD, units.R4K, units.R5K} {
			s := pipeline.Planar(r, 60, fps)
			for name, tl := range allSchemes(t, p, s) {
				if absDur(tl.Total()-s.Period()) > time.Microsecond {
					t.Errorf("%s %v@%d: total %v != period %v", name, r, fps, tl.Total(), s.Period())
				}
			}
		}
	}
}

func TestBypassEliminatesFrameBufferTraffic(t *testing.T) {
	// §4.1: Frame Buffer Bypass removes the decoded-frame round trip
	// through DRAM; only the encoded stream read remains.
	p, s := defaults()
	tl, err := BypassOnly(p, s)
	if err != nil {
		t.Fatal(err)
	}
	read, write := tl.DRAMTraffic()
	if write != 0 {
		t.Errorf("bypass DRAM writes = %v, want 0", write)
	}
	if want := p.EncodedFrameSize(units.FHD); read != want {
		t.Errorf("bypass DRAM reads = %v, want encoded frame %v", read, want)
	}
}

func TestBurstKeepsFrameBufferTraffic(t *testing.T) {
	// §4.2: Frame Bursting alone still round-trips DRAM.
	p, s := defaults()
	tl, _ := BurstOnly(p, s)
	read, write := tl.DRAMTraffic()
	if write != s.FrameSize() {
		t.Errorf("burst DRAM writes = %v, want one frame", write)
	}
	wantRead := p.EncodedFrameSize(units.FHD) + s.FrameSize()
	if diff := read - wantRead; diff < -units.KB || diff > units.KB {
		t.Errorf("burst DRAM reads = %v, want ~%v", read, wantRead)
	}
}

func TestFullBurstLinkMinimalTraffic(t *testing.T) {
	p, s := defaults()
	tl, _ := BurstLink(p, s)
	read, write := tl.DRAMTraffic()
	if write != 0 || read != p.EncodedFrameSize(units.FHD) {
		t.Errorf("full traffic = %v/%v, want encoded-read only", read, write)
	}
}

func TestBurstSchemesReachC9(t *testing.T) {
	p, s := defaults()
	for _, name := range []string{"burst", "full"} {
		tl := allSchemes(t, p, s)[name]
		if timeIn(tl, soc.C9) <= 0 {
			t.Errorf("%s: no C9 residency", name)
		}
	}
	// Bypass-only (pixel-paced link) cannot enter C9.
	byp, _ := BypassOnly(p, s)
	if timeIn(byp, soc.C9) != 0 {
		t.Error("bypass-only should not reach C9")
	}
	if byp.DeepestState() != soc.C8 {
		t.Errorf("bypass deepest = %v, want C8", byp.DeepestState())
	}
}

func TestFullMatchesTable2Shape(t *testing.T) {
	// Fig 7(a)/Table 2: C0 ~2%, C7/C7' ~19%, C9 ~79% for FHD 30FPS.
	p, s := defaults()
	tl, _ := BurstLink(p, s)
	res := tl.Residency()
	if res[soc.C0] < 0.015 || res[soc.C0] > 0.025 {
		t.Errorf("C0 = %.1f%%", res[soc.C0]*100)
	}
	active := res[soc.C7] + res[soc.C7Prime]
	if active < 0.15 || active > 0.22 {
		t.Errorf("C7+C7' = %.1f%%, want ~19%%", active*100)
	}
	if res[soc.C9] < 0.76 || res[soc.C9] > 0.83 {
		t.Errorf("C9 = %.1f%%, want ~79%%", res[soc.C9]*100)
	}
}

func TestBurstPhasesAreFlagged(t *testing.T) {
	p, s := defaults()
	for _, name := range []string{"burst", "full"} {
		tl := allSchemes(t, p, s)[name]
		flagged := false
		for _, ph := range tl.Phases {
			if ph.EDPBurst {
				flagged = true
			}
			// Deep-idle phases must not carry the burst flag.
			if ph.State == soc.C9 && ph.EDPBurst {
				t.Errorf("%s: C9 phase with burst flag", name)
			}
		}
		if !flagged {
			t.Errorf("%s: no burst-flagged phase", name)
		}
	}
	// Bypass-only never bursts.
	byp, _ := BypassOnly(p, s)
	for _, ph := range byp.Phases {
		if ph.EDPBurst {
			t.Fatal("bypass-only phase flagged as burst")
		}
	}
}

func TestSchedulersUnderrun(t *testing.T) {
	p := pipeline.DefaultPlatform()
	p.ThroughputExp = 0
	s := pipeline.Planar(units.R5K, 120, 120)
	for name, fn := range map[string]func(pipeline.Platform, pipeline.Scenario) (trace.Timeline, error){
		"burst": BurstOnly, "bypass": BypassOnly, "full": BurstLink,
	} {
		_, err := fn(p, s)
		var u pipeline.ErrUnderrun
		if !errors.As(err, &u) {
			t.Errorf("%s: expected underrun, got %v", name, err)
		}
	}
}

func TestSchedulersRejectInvalidScenario(t *testing.T) {
	p := pipeline.DefaultPlatform()
	bad := pipeline.Scenario{Res: units.FHD, Refresh: 60, FPS: 45, BPP: 24}
	for name, fn := range map[string]func(pipeline.Platform, pipeline.Scenario) (trace.Timeline, error){
		"burst": BurstOnly, "bypass": BypassOnly, "full": BurstLink,
	} {
		if _, err := fn(p, bad); err == nil {
			t.Errorf("%s: invalid scenario accepted", name)
		}
	}
}

func TestVRPhasesPresent(t *testing.T) {
	p := pipeline.DefaultPlatform()
	s := pipeline.Scenario{
		Res: units.Resolution{Width: 2160, Height: 1200}, Refresh: 60, FPS: 30, BPP: 24,
		VR: true, VRSource: units.R4K, MotionFactor: 1.3,
	}
	for name, tl := range allSchemes(t, p, s) {
		hasGPU := false
		for _, ph := range tl.Phases {
			if ph.GPUActive {
				hasGPU = true
			}
		}
		if !hasGPU {
			t.Errorf("%s: VR scenario lacks GPU phase", name)
		}
	}
	// Bypass and full must not write frames to DRAM even for VR.
	byp, _ := BypassOnly(p, s)
	if _, write := byp.DRAMTraffic(); write != 0 {
		t.Error("VR bypass should not write DRAM frame buffers")
	}
}

func TestLinkBoundTransferHasDrainTail(t *testing.T) {
	// At 5K the burst link (13.6 ms) outlasts the LP decode: the full
	// scheme must show a post-decode drain at C8.
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.R5K, 60, 30)
	tl, err := BurstLink(p, s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ph := range tl.Phases {
		if ph.State == soc.C8 && ph.EDPBurst {
			found = true
		}
	}
	if !found {
		t.Fatal("expected a C8 burst drain tail at 5K")
	}
}

func TestDecodeBoundTransferHasNoDrainTail(t *testing.T) {
	// At FHD the decode (5.9 ms) outlasts the burst (1.9 ms): no tail.
	p, s := defaults()
	tl, _ := BurstLink(p, s)
	for _, ph := range tl.Phases {
		if ph.State == soc.C8 {
			t.Fatalf("unexpected C8 phase in decode-bound transfer: %+v", ph)
		}
	}
}
