package pipeline

import (
	"errors"
	"math"
	"testing"
	"time"

	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
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

func TestScenarioValidate(t *testing.T) {
	good := Planar(units.FHD, 60, 30)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Scenario{
		{},
		{Res: units.FHD, Refresh: 60, FPS: 45, BPP: 24},           // 60 % 45 != 0
		{Res: units.FHD, Refresh: 60, FPS: 30, BPP: 24, VR: true}, // VR without source
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestScenarioDerived(t *testing.T) {
	s := Planar(units.FHD, 60, 30)
	if s.WindowsPerFrame() != 2 {
		t.Fatalf("windows per frame = %d", s.WindowsPerFrame())
	}
	if s.Period() != time.Second/30 {
		t.Fatalf("period = %v", s.Period())
	}
	if s.FrameSize() != units.FHD.FrameSize(24) {
		t.Fatal("frame size wrong")
	}
}

func TestDemandAnchor(t *testing.T) {
	p := DefaultPlatform()
	if d := p.Demand(units.FHD.Pixels(), 30); math.Abs(d-1) > 1e-9 {
		t.Fatalf("FHD30 demand = %v, want 1", d)
	}
	// Demand grows sublinearly.
	d4k := p.Demand(units.R4K.Pixels(), 30)
	if d4k <= 1 || d4k >= 4 {
		t.Fatalf("4K30 demand = %v, want in (1, 4)", d4k)
	}
	if p.Demand(0, 30) != 1 {
		t.Fatal("zero pixels should clamp to 1")
	}
}

func TestPlatformTimingAnchors(t *testing.T) {
	p := DefaultPlatform()
	// Table 2 derivations: decode FHD ≈ 2 ms, fetch FHD ≈ 3.67 ms,
	// LP decode ≈ 5.9-6.3 ms.
	if d := p.DecodeTime(units.FHD, 30); d < 1900*time.Microsecond || d > 2100*time.Microsecond {
		t.Fatalf("decode FHD = %v, want ~2ms", d)
	}
	if d := p.FetchTime(units.FHD, 24, 30); d < 3500*time.Microsecond || d > 3800*time.Microsecond {
		t.Fatalf("fetch FHD = %v, want ~3.67ms", d)
	}
	if d := p.DecodeTimeLP(units.FHD, 30); d < 5500*time.Microsecond || d > 6500*time.Microsecond {
		t.Fatalf("LP decode FHD = %v, want ~5.9ms", d)
	}
	// §3: burst of a 4K frame ≈ 7.7 ms at 25.92 Gbps.
	if d := p.BurstTime(units.R4K, 24); d < 7*time.Millisecond || d > 8*time.Millisecond {
		t.Fatalf("burst 4K = %v", d)
	}
}

func TestDecodeTimeScalesSublinearly(t *testing.T) {
	p := DefaultPlatform()
	fhd := p.DecodeTime(units.FHD, 30)
	k4 := p.DecodeTime(units.R4K, 30)
	if k4 <= fhd {
		t.Fatal("4K decode should take longer than FHD")
	}
	if k4 >= 4*fhd {
		t.Fatalf("4K decode %v should be < 4x FHD %v (DVFS headroom)", k4, fhd)
	}
}

func TestProjectTimeMotionFactor(t *testing.T) {
	p := DefaultPlatform()
	base := p.ProjectTime(units.VR1080, 60, 1)
	fast := p.ProjectTime(units.VR1080, 60, 1.5)
	if math.Abs(float64(fast)-1.5*float64(base)) > float64(time.Microsecond) {
		t.Fatalf("motion factor scaling wrong: %v vs %v", fast, base)
	}
	if p.ProjectTime(units.VR1080, 60, 0) != base {
		t.Fatal("motion factor below 1 should clamp to 1")
	}
}

func TestConventionalTimelineCoversPeriod(t *testing.T) {
	p := DefaultPlatform()
	for _, fps := range []units.FPS{30, 60} {
		for _, r := range []units.Resolution{units.FHD, units.QHD, units.R4K, units.R5K} {
			s := Planar(r, 60, fps)
			tl, err := Conventional(p, s)
			if err != nil {
				t.Fatalf("%v@%d: %v", r, fps, err)
			}
			if got, want := tl.Total(), s.Period(); absDur(got-want) > time.Microsecond {
				t.Errorf("%v@%d: timeline %v != period %v", r, fps, got, want)
			}
		}
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestConventionalDRAMTraffic(t *testing.T) {
	p := DefaultPlatform()
	s := Planar(units.FHD, 60, 30)
	tl, _ := Conventional(p, s)
	read, write := tl.DRAMTraffic()
	// Write: one decoded frame. Read: encoded frame + DC fetch of the
	// decoded frame.
	if write != s.FrameSize() {
		t.Errorf("write = %v, want one frame %v", write, s.FrameSize())
	}
	wantRead := p.EncodedFrameSize(units.FHD) + s.FrameSize()
	if diff := read - wantRead; diff < -units.KB || diff > units.KB {
		t.Errorf("read = %v, want ~%v", read, wantRead)
	}
}

func TestConventional30FPSHasPSRWindow(t *testing.T) {
	p := DefaultPlatform()
	tl, _ := Conventional(p, Planar(units.FHD, 60, 30))
	window := units.RefreshRate(60).Window()
	if got := timeIn(tl, soc.C8); got < window {
		t.Fatalf("C8 time %v should include a full PSR window %v", got, window)
	}
	// 60 FPS has no PSR window: C8 only from drain slices.
	tl60, _ := Conventional(p, Planar(units.FHD, 60, 60))
	if timeIn(tl60, soc.C8) >= window {
		t.Fatal("60FPS should not contain a full PSR window")
	}
}

func TestConventionalPSRDeep(t *testing.T) {
	p := DefaultPlatform()
	p.PSRDeep = true
	tl, _ := Conventional(p, Planar(units.FHD, 60, 30))
	window := units.RefreshRate(60).Window()
	if got := timeIn(tl, soc.C9); got != window {
		t.Fatalf("PSRDeep C9 time = %v, want %v", got, window)
	}
}

func TestConventionalChunkAlternation(t *testing.T) {
	p := DefaultPlatform()
	tl, _ := Conventional(p, Planar(units.FHD, 60, 30))
	entries := tl.Entries()
	wantChunks := int((units.FHD.FrameSize(24) + p.DCBufSize - 1) / p.DCBufSize)
	if entries[soc.C2] != wantChunks {
		t.Fatalf("C2 entries = %d, want %d chunk fetches", entries[soc.C2], wantChunks)
	}
}

func TestConventionalUnderrun(t *testing.T) {
	p := DefaultPlatform()
	p.ThroughputExp = 0 // no DVFS headroom: heavy scenarios must underrun
	s := Planar(units.R5K, 120, 120)
	_, err := Conventional(p, s)
	var u ErrUnderrun
	if !errors.As(err, &u) {
		t.Fatalf("expected underrun, got %v", err)
	}
	if u.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestConventionalVRAddsProjection(t *testing.T) {
	p := DefaultPlatform()
	s := Scenario{
		Res: units.Resolution{Width: 2160, Height: 1200}, Refresh: 60, FPS: 30, BPP: 24,
		VR: true, VRSource: units.R4K, MotionFactor: 1.2,
	}
	tl, err := Conventional(p, s)
	if err != nil {
		t.Fatal(err)
	}
	var gpu time.Duration
	var gpuRead units.ByteSize
	for _, ph := range tl.Phases {
		if ph.GPUActive {
			gpu += ph.Duration
			gpuRead += ph.DRAMRead
		}
	}
	if gpu == 0 {
		t.Fatal("VR scenario must contain a GPU projection phase")
	}
	// Projection reads the decoded equirect frame from DRAM.
	if gpuRead != units.R4K.FrameSize(24) {
		t.Fatalf("projection read = %v, want equirect frame", gpuRead)
	}
	// VR decode writes equirect + projected frames.
	_, write := tl.DRAMTraffic()
	want := units.R4K.FrameSize(24) + s.FrameSize()
	if write != want {
		t.Fatalf("VR write = %v, want %v", write, want)
	}
}

func TestEncodedFrameSizeIsHundredsOfKB(t *testing.T) {
	p := DefaultPlatform()
	// §2.4: encoded frames are "hundreds of KBytes".
	got := p.EncodedFrameSize(units.R4K)
	if got < 100*units.KB || got > units.MB {
		t.Fatalf("encoded 4K frame = %v", got)
	}
}
