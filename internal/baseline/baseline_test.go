package baseline

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"burstlink/internal/core"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
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

func reduction(t *testing.T, base trace.Timeline, tl trace.Timeline, load power.Load) float64 {
	t.Helper()
	m := power.Default()
	return 1 - float64(m.Evaluate(tl, load).Average)/float64(m.Evaluate(base, load).Average)
}

// CompressRLE is a real frame-buffer compressor in the family the paper
// cites (run-length + differential pulse-code modulation, Shim et al.): it
// encodes each row as DPCM residuals with zero-run elision. It returns the
// compressed size; callers derive the achieved ratio. It grounds the FBC
// model's compression rates in actual pixel data.
func CompressRLE(data []byte, rowBytes int) int {
	if rowBytes <= 0 || len(data) == 0 {
		return len(data)
	}
	out := 0
	for off := 0; off < len(data); off += rowBytes {
		end := off + rowBytes
		if end > len(data) {
			end = len(data)
		}
		prev := byte(0)
		zeroRun := 0
		for _, b := range data[off:end] {
			d := b - prev
			prev = b
			if d == 0 {
				zeroRun++
				continue
			}
			// Flush the run as (marker, count) pairs of 2 bytes each.
			out += 2 * ((zeroRun + 254) / 255)
			zeroRun = 0
			out++ // literal residual
		}
		out += 2 * ((zeroRun + 254) / 255)
	}
	return out
}

func TestCompressRLECompressesSmoothContent(t *testing.T) {
	// A smooth gradient row compresses well under DPCM+RLE.
	row := make([]byte, 1920*3)
	for i := range row {
		row[i] = byte(i / 64)
	}
	frame := bytes.Repeat(row, 64)
	got := CompressRLE(frame, len(row))
	if got >= len(frame)/2 {
		t.Fatalf("smooth frame compressed to %d of %d, want < 50%%", got, len(frame))
	}
}

func TestCompressRLENoiseDoesNotExplode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frame := make([]byte, 64*1920*3)
	rng.Read(frame)
	got := CompressRLE(frame, 1920*3)
	if got > len(frame)*2 {
		t.Fatalf("noise inflated to %d of %d", got, len(frame))
	}
}

func TestCompressRLEEdgeCases(t *testing.T) {
	if CompressRLE(nil, 10) != 0 {
		t.Fatal("empty input")
	}
	if CompressRLE([]byte{1, 2, 3}, 0) != 3 {
		t.Fatal("zero row bytes should pass through")
	}
}

func TestFBCReducesDRAMTrafficButNotBelowBurstLink(t *testing.T) {
	// Fig 13: FBC at 50% yields a modest (~9-15%) system energy
	// reduction at 4K — far below BurstLink's ~40%.
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.R4K, 60, 60)
	load := power.LoadOf(p, s)
	base, err := pipeline.Conventional(p, s)
	if err != nil {
		t.Fatal(err)
	}
	fbc, err := FBC(p, s, DefaultFBC(0.5))
	if err != nil {
		t.Fatal(err)
	}
	bl, err := core.BurstLink(p, s)
	if err != nil {
		t.Fatal(err)
	}

	redFBC := reduction(t, base, fbc, load)
	redBL := reduction(t, base, bl, load)
	if redFBC < 0.04 || redFBC > 0.20 {
		t.Errorf("FBC@50%% reduction = %.1f%%, want ~9%%", redFBC*100)
	}
	if redBL < 2*redFBC {
		t.Errorf("BurstLink %.1f%% should dominate FBC %.1f%%", redBL*100, redFBC*100)
	}

	// Traffic: FBC halves the frame-buffer bytes.
	_, baseW := base.DRAMTraffic()
	_, fbcW := fbc.DRAMTraffic()
	if fbcW != baseW/2 {
		t.Errorf("FBC write = %v, want half of %v", fbcW, baseW)
	}
}

func TestFBCMonotoneInRate(t *testing.T) {
	// Fig 13 sweeps rates 20/30/50%: more compression, more savings.
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.R4K, 60, 60)
	load := power.LoadOf(p, s)
	base, _ := pipeline.Conventional(p, s)
	prev := -1.0
	for _, rate := range []float64{0.2, 0.3, 0.5} {
		tl, err := FBC(p, s, DefaultFBC(rate))
		if err != nil {
			t.Fatal(err)
		}
		red := reduction(t, base, tl, load)
		if red <= prev {
			t.Errorf("rate %.0f%%: reduction %.1f%% not above previous %.1f%%", rate*100, red*100, prev*100)
		}
		prev = red
	}
}

func TestFBCTimelineCoversPeriod(t *testing.T) {
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.R4K, 60, 30)
	tl, err := FBC(p, s, DefaultFBC(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if d := tl.Total() - s.Period(); d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("total %v != period %v", tl.Total(), s.Period())
	}
}

func TestZhangModestReduction(t *testing.T) {
	// §6.4: Zhang et al.'s three techniques combined reduce 4K streaming
	// energy by ~6%, versus BurstLink's ~40%.
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.R4K, 60, 60)
	load := power.LoadOf(p, s)
	base, _ := pipeline.Conventional(p, s)
	baseN := base.Repeat(4) // compare over the same 4-period span
	z, err := Zhang(p, s, DefaultZhang())
	if err != nil {
		t.Fatal(err)
	}
	red := reduction(t, baseN, z, load)
	if red < 0.02 || red > 0.15 {
		t.Errorf("Zhang reduction = %.1f%%, want ~6%%", red*100)
	}
	bl, _ := core.BurstLink(p, s)
	redBL := reduction(t, base, bl, load)
	if redBL < 3*red {
		t.Errorf("BurstLink %.1f%% should be several times Zhang %.1f%%", redBL*100, red*100)
	}
}

func TestZhangTimelineSpansBatch(t *testing.T) {
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.R4K, 60, 60)
	cfg := DefaultZhang()
	tl, err := Zhang(p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(cfg.Batch) * s.Period()
	if d := tl.Total() - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("total %v != batch span %v", tl.Total(), want)
	}
	// DRAM bandwidth reduced by ~34% vs 4 baseline periods.
	base, _ := pipeline.Conventional(p, s)
	bR, bW := base.Repeat(4).DRAMTraffic()
	zR, zW := tl.DRAMTraffic()
	baseFB := float64(bR+bW) - 4*float64(p.EncodedFrameSize(s.Res))
	zhangFB := float64(zR+zW) - 4*float64(p.EncodedFrameSize(s.Res))
	saving := 1 - zhangFB/baseFB
	if saving < 0.30 || saving > 0.40 {
		t.Errorf("Zhang bandwidth saving = %.1f%%, want ~34%%", saving*100)
	}
	// Never deeper than C8 (no DRFB).
	if tl.DeepestState() != soc.C8 {
		t.Errorf("deepest = %v, want C8", tl.DeepestState())
	}
}

func TestVIPBetweenBaselineAndBurstLink(t *testing.T) {
	// §6.4: BurstLink beats VIP because VIP cannot power down the
	// VD/DC/eDP during the window.
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.R4K, 60, 60)
	load := power.LoadOf(p, s)
	base, _ := pipeline.Conventional(p, s)
	v, err := VIP(p, s)
	if err != nil {
		t.Fatal(err)
	}
	redVIP := reduction(t, base, v, load)
	bl, _ := core.BurstLink(p, s)
	redBL := reduction(t, base, bl, load)
	if redVIP <= 0 {
		t.Errorf("VIP reduction = %.1f%%, want positive", redVIP*100)
	}
	if redBL <= redVIP {
		t.Errorf("BurstLink %.1f%% must beat VIP %.1f%%", redBL*100, redVIP*100)
	}
	// VIP never reaches C9.
	if timeIn(v, soc.C9) != 0 {
		t.Error("VIP should not reach C9")
	}
}

func TestVIPChainsAvoidDRAM(t *testing.T) {
	p := pipeline.DefaultPlatform()
	s := pipeline.Planar(units.FHD, 60, 30)
	v, _ := VIP(p, s)
	_, write := v.DRAMTraffic()
	if write != 0 {
		t.Fatalf("VIP chained path wrote %v to DRAM", write)
	}
}

func TestBaselinesRejectInvalidScenario(t *testing.T) {
	p := pipeline.DefaultPlatform()
	bad := pipeline.Scenario{Res: units.FHD, Refresh: 60, FPS: 45, BPP: 24}
	if _, err := FBC(p, bad, DefaultFBC(0.5)); err == nil {
		t.Error("FBC accepted invalid scenario")
	}
	if _, err := Zhang(p, bad, DefaultZhang()); err == nil {
		t.Error("Zhang accepted invalid scenario")
	}
	if _, err := VIP(p, bad); err == nil {
		t.Error("VIP accepted invalid scenario")
	}
}
