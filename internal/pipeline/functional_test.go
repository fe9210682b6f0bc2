package pipeline

import (
	"testing"
	"time"

	"burstlink/internal/soc"
	"burstlink/internal/units"
)

func funcCfg(frames int) FunctionalConfig {
	return FunctionalConfig{Width: 96, Height: 64, Frames: frames, FPS: 30, Refresh: 60}
}

func TestFunctionalConfigValidate(t *testing.T) {
	if err := funcCfg(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []FunctionalConfig{
		{},
		{Width: 96, Height: 64, Frames: 4, FPS: 45, Refresh: 60},
		{Width: -1, Height: 64, Frames: 4, FPS: 30, Refresh: 60},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSyntheticVideoEncodes(t *testing.T) {
	pkts, sums, err := SyntheticVideo(funcCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 6 || len(sums) != 6 {
		t.Fatalf("got %d packets, %d sums", len(pkts), len(sums))
	}
	for i, p := range pkts {
		if p.Size() == 0 {
			t.Fatalf("packet %d empty", i)
		}
		if p.Seq != i {
			t.Fatalf("packet %d seq %d", i, p.Seq)
		}
	}
	// Different frames, different checksums (content moves).
	if sums[0] == sums[1] {
		t.Fatal("consecutive frames should differ")
	}
}

func TestRunFunctionalConventional(t *testing.T) {
	p := DefaultPlatform()
	res, err := RunFunctionalMemo(p, nil, funcCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesVerified != 6 || res.ChecksumErrors != 0 {
		t.Fatalf("verified %d, errors %d", res.FramesVerified, res.ChecksumErrors)
	}
	if res.Panel.Tears != 0 || res.Panel.SeqRegress != 0 {
		t.Fatalf("panel stats %+v", res.Panel)
	}
	// One decoded frame written and read back per frame, plus the
	// encoded stream reads.
	frame := (units.Resolution{Width: 96, Height: 64}).FrameSize(24)
	if res.DRAMWrite != 6*frame {
		t.Fatalf("writes = %v, want %v", res.DRAMWrite, 6*frame)
	}
	if res.DRAMRead < 6*frame {
		t.Fatalf("reads = %v, want >= 6 frames", res.DRAMRead)
	}
	// Timeline covers all six frame periods.
	want := 6 * units.FPS(30).FrameInterval()
	if d := res.Timeline.Total() - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("timeline %v, want %v", res.Timeline.Total(), want)
	}
	// The alternation structure is present.
	if timeIn(res.Timeline, soc.C2) == 0 || timeIn(res.Timeline, soc.C0) == 0 {
		t.Fatalf("missing active states: %s", res.Timeline.String())
	}
}

func TestRunFunctional60FPSNoPSR(t *testing.T) {
	p := DefaultPlatform()
	cfg := funcCfg(4)
	cfg.FPS = 60
	res, err := RunFunctionalMemo(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 60 FPS on 60 Hz: one refresh per frame, no self-refresh passes.
	if res.Panel.SelfRefresh != 0 {
		t.Fatalf("self refresh = %d at 60FPS", res.Panel.SelfRefresh)
	}
	if res.Panel.Refreshes != 4 {
		t.Fatalf("refreshes = %d", res.Panel.Refreshes)
	}
}

func TestRunFunctionalRejectsBadConfig(t *testing.T) {
	if _, err := RunFunctionalMemo(DefaultPlatform(), nil, FunctionalConfig{}); err == nil {
		t.Fatal("bad config should fail")
	}
}
