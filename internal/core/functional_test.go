package core

import (
	"testing"
	"time"

	"burstlink/internal/interconnect"
	"burstlink/internal/pipeline"
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

func smallCfg(frames int) pipeline.FunctionalConfig {
	return pipeline.FunctionalConfig{Width: 96, Height: 64, Frames: frames, FPS: 30, Refresh: 60}
}

func TestSelectorRouting(t *testing.T) {
	sel := NewDestinationSelector(interconnect.NewCSRFile("vd"), interconnect.NewCSRFile("dc"))
	if sel.Destination() != DestDRAM {
		t.Fatal("reset state must route to DRAM")
	}
	sel.SetVideoApps(1)
	sel.SetPlanes(1, true)
	if sel.Destination() != DestDC {
		t.Fatal("single video + video-plane-only must route to DC")
	}
	// Fallback: second video app.
	sel.SetVideoApps(2)
	if sel.Destination() != DestDRAM {
		t.Fatal("two video apps must fall back")
	}
	sel.SetVideoApps(1)
	// Fallback: a GUI plane appears over the video (§4.1 case 1).
	sel.SetPlanes(2, false)
	if sel.Destination() != DestDRAM {
		t.Fatal("a graphics plane must fall back")
	}
	sel.SetPlanes(1, true)
	if sel.Destination() != DestDC {
		t.Fatal("restoring conditions must re-enable bypass")
	}
	// Multi-plane composition.
	sel.SetPlanes(3, false)
	if sel.Destination() != DestDRAM {
		t.Fatal("multi-plane must fall back")
	}
	if DestDC.String() != "dc" || DestDRAM.String() != "dram" {
		t.Fatal("names wrong")
	}
}

func TestFirmwareClamp(t *testing.T) {
	in := false
	fw := &Firmware{FrameInDRFB: func() bool { return in }}
	if got := fw.Clamp(soc.C9); got != soc.C8 {
		t.Fatalf("clamp without DRFB frame = %v, want C8", got)
	}
	in = true
	if got := fw.Clamp(soc.C9); got != soc.C9 {
		t.Fatalf("clamp with DRFB frame = %v, want C9", got)
	}
	if got := fw.Clamp(soc.C7); got != soc.C7 {
		t.Fatal("shallow states must pass through")
	}
	if fw.Name() == "" {
		t.Fatal("firmware must have a name")
	}
}

// onDCBufferEmpty is change 2 as the PMU performs it: the DC's empty
// signal raises the VD's wakeup signal (Fig 5). No simulator drains the
// DC buffer mid-period, so only this test wires the handshake.
func (f *Firmware) onDCBufferEmpty() {
	if f.WakeVD != nil {
		f.WakeVD()
	}
}

func TestFirmwareWakeHandshake(t *testing.T) {
	woke := 0
	fw := &Firmware{WakeVD: func() { woke++ }}
	fw.onDCBufferEmpty()
	fw.onDCBufferEmpty()
	if woke != 2 {
		t.Fatalf("wakeups = %d", woke)
	}
	fw.BurstActive = true
	if !fw.GrantMaxBandwidth() {
		t.Fatal("burst grant should follow the flag")
	}
}

func TestFunctionalBurstLinkEndToEnd(t *testing.T) {
	p := pipeline.DefaultPlatform()
	res, err := RunFunctionalMemo(p, nil, smallCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	// Every frame displayed bit-exact, in order, without tearing.
	if res.FramesVerified != 12 || res.ChecksumErrors != 0 {
		t.Fatalf("verified %d/12, errors %d", res.FramesVerified, res.ChecksumErrors)
	}
	if res.Panel.Tears != 0 {
		t.Fatalf("tears = %d", res.Panel.Tears)
	}
	if res.Panel.SeqRegress != 0 {
		t.Fatalf("sequence regressions = %d", res.Panel.SeqRegress)
	}
	if res.Panel.UniqueFrames != 12 {
		t.Fatalf("unique frames = %d", res.Panel.UniqueFrames)
	}
	// 30 FPS on 60 Hz: two refreshes per frame.
	if res.Panel.Refreshes != 24 {
		t.Fatalf("refreshes = %d, want 24", res.Panel.Refreshes)
	}
	// Frame Buffer Bypass: no decoded frames in DRAM — only encoded
	// stream reads.
	if res.DRAMWrite != 0 {
		t.Fatalf("DRAM writes = %v, want 0 (bypass)", res.DRAMWrite)
	}
	frameBytes := (units.Resolution{Width: 96, Height: 64}).FrameSize(24)
	if res.P2PBytes != 12*frameBytes {
		t.Fatalf("P2P bytes = %v, want %v", res.P2PBytes, 12*frameBytes)
	}
	// The package reached C9 in steady state.
	if timeIn(res.Timeline, soc.C9) <= 0 {
		t.Fatal("no C9 residency in functional BurstLink run")
	}
}

func TestFunctionalBaselineVsBurstLinkTraffic(t *testing.T) {
	p := pipeline.DefaultPlatform()
	cfg := smallCfg(8)
	base, err := pipeline.RunFunctionalMemo(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := RunFunctionalMemo(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both must display all frames correctly.
	if base.FramesVerified != 8 || bl.FramesVerified != 8 {
		t.Fatalf("verified base %d bl %d", base.FramesVerified, bl.FramesVerified)
	}
	// The headline mechanism: BurstLink moves far less data through DRAM.
	frameBytes := (units.Resolution{Width: 96, Height: 64}).FrameSize(24)
	if base.DRAMWrite < 8*frameBytes {
		t.Fatalf("baseline DRAM writes = %v, want >= 8 frames", base.DRAMWrite)
	}
	if bl.DRAMWrite != 0 {
		t.Fatalf("BurstLink DRAM writes = %v", bl.DRAMWrite)
	}
	if bl.DRAMRead >= base.DRAMRead/4 {
		t.Fatalf("BurstLink DRAM reads %v not ≪ baseline %v", bl.DRAMRead, base.DRAMRead)
	}
	// BurstLink reaches deeper idle than the baseline.
	if got, want := bl.Timeline.DeepestState(), base.Timeline.DeepestState(); !got.DeeperThan(want) {
		t.Fatalf("BurstLink deepest %v should be deeper than baseline %v", got, want)
	}
}

func TestFunctionalBaseline(t *testing.T) {
	p := pipeline.DefaultPlatform()
	res, err := pipeline.RunFunctionalMemo(p, nil, smallCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesVerified != 10 || res.ChecksumErrors != 0 {
		t.Fatalf("verified %d, errors %d", res.FramesVerified, res.ChecksumErrors)
	}
	if res.Panel.Tears != 0 {
		t.Fatalf("tears = %d", res.Panel.Tears)
	}
	// PSR self-refresh happened in the repeat windows.
	if res.Panel.SelfRefresh == 0 {
		t.Fatal("expected PSR self-refresh passes at 30FPS/60Hz")
	}
	// Baseline never goes deeper than C8.
	if res.Timeline.DeepestState() != soc.C8 {
		t.Fatalf("baseline deepest = %v, want C8", res.Timeline.DeepestState())
	}
}

func TestFunctionalConfigValidation(t *testing.T) {
	p := pipeline.DefaultPlatform()
	if _, err := pipeline.RunFunctionalMemo(p, nil, pipeline.FunctionalConfig{}); err == nil {
		t.Fatal("empty config should fail")
	}
	bad := smallCfg(4)
	bad.FPS = 45
	if _, err := RunFunctionalMemo(p, nil, bad); err == nil {
		t.Fatal("45FPS on 60Hz should fail")
	}
}
