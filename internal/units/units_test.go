package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// BytesPer returns how many whole bytes this rate moves in d, the
// inverse TimeFor is checked against.
func (r DataRate) BytesPer(d time.Duration) ByteSize {
	return ByteSize(float64(r) / 8 * d.Seconds())
}

func TestByteSizeBits(t *testing.T) {
	if got := (3 * MB).Bits(); got != 24e6 {
		t.Fatalf("3MB = %d bits, want 24e6", got)
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{512 * Byte, "512 B"},
		{24 * KB, "24.0 KB"},
		{24900 * KB, "24.9 MB"},
		{2 * GB, "2.00 GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d bytes: got %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestDataRateTimeFor(t *testing.T) {
	// The paper's headline: a 24 MB 4K frame over eDP 1.4 at 25.92 Gbps
	// takes ~7.2-7.7 ms (§3, Observation 2).
	frame := R4K.FrameSize(24)
	d := DataRate(25.92 * Gbps).TimeFor(frame)
	if d < 7*time.Millisecond || d > 8*time.Millisecond {
		t.Fatalf("4K burst transfer = %v, want ~7.2-7.7ms", d)
	}
}

func TestDataRateTimeForZeroRate(t *testing.T) {
	if d := DataRate(0).TimeFor(1 * MB); d != time.Duration(1<<63-1) {
		t.Fatalf("zero rate should never complete, got %v", d)
	}
}

func TestDataRateBytesPerRoundTrip(t *testing.T) {
	f := func(gbps uint16, ms uint8) bool {
		if gbps == 0 || ms == 0 {
			return true
		}
		r := DataRate(gbps) * Gbps / 100
		d := time.Duration(ms) * time.Millisecond
		b := r.BytesPer(d)
		// Reconstructing the duration from the byte count must agree
		// within one microsecond of rounding error.
		back := r.TimeFor(b)
		return math.Abs(float64(back-d)) < float64(time.Microsecond)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGBpsConversion(t *testing.T) {
	if got := GBps(1); got != DataRate(8e9) {
		t.Fatalf("1 GB/s = %v bps, want 8e9", float64(got))
	}
}

func TestEnergyOver(t *testing.T) {
	// 2162 mW over a 33.3 ms 30FPS period ≈ 72 mJ.
	e := EnergyOver(2162*MilliWatt, 33333*time.Microsecond)
	if e < 71.9 || e > 72.2 {
		t.Fatalf("energy = %v mJ, want ~72.06", float64(e))
	}
}

func TestAveragePowerInvertsEnergyOver(t *testing.T) {
	f := func(mw uint16, us uint32) bool {
		if us == 0 {
			return AveragePower(Energy(mw), 0) == 0
		}
		p := Power(mw)
		d := time.Duration(us) * time.Microsecond
		got := AveragePower(EnergyOver(p, d), d)
		return math.Abs(float64(got-p)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResolutionFrameSize(t *testing.T) {
	// §1: "24MB for a 4K video" at 24 bpp.
	if got := R4K.FrameSize(24); got != ByteSize(3840*2160*3) {
		t.Fatalf("4K frame = %v, want 24.88 MB", got)
	}
	if got := FHD.FrameSize(24); got != ByteSize(1920*1080*3) {
		t.Fatalf("FHD frame = %v", got)
	}
}

func TestRefreshWindow(t *testing.T) {
	w := RefreshRate(60).Window()
	if w < 16600*time.Microsecond || w > 16700*time.Microsecond {
		t.Fatalf("60Hz window = %v, want ~16.67ms", w)
	}
	if RefreshRate(0).Window() != 0 {
		t.Fatal("zero refresh rate should have zero window")
	}
}

func TestPixelRateMatchesPaper(t *testing.T) {
	// §3: conventional 4K 60Hz pixel stream is ~11.3-11.9 Gbps.
	r := RefreshRate(60).PixelRate(R4K, 24)
	if r < 11*Gbps || r > 12.2*Gbps {
		t.Fatalf("4K60 pixel rate = %v, want ~11.3-11.9 Gbps", r)
	}
}

func TestFPSFrameInterval(t *testing.T) {
	if got := FPS(30).FrameInterval(); got != time.Second/30 {
		t.Fatalf("30FPS interval = %v", got)
	}
	if FPS(0).FrameInterval() != 0 {
		t.Fatal("zero FPS should have zero interval")
	}
}

func TestResolutionNames(t *testing.T) {
	for _, c := range []struct {
		r    Resolution
		want string
	}{{FHD, "FHD"}, {QHD, "QHD"}, {R4K, "4K"}, {R5K, "5K"}, {VR1080, "1080x1200"}} {
		if got := c.r.Name(); got != c.want {
			t.Errorf("Name(%v) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestPowerString(t *testing.T) {
	if got := (2162 * MilliWatt).String(); got != "2162 mW" {
		t.Errorf("got %q", got)
	}
	if got := (15 * Watt).String(); got != "15.00 W" {
		t.Errorf("got %q", got)
	}
}

func TestDataRateString(t *testing.T) {
	if got := (25.92 * Gbps).String(); got != "25.92 Gbps" {
		t.Errorf("got %q", got)
	}
}

func TestDataRateStringVariants(t *testing.T) {
	cases := map[DataRate]string{
		500 * BitPerSecond: "500 bps",
		12 * Kbps:          "12.0 Kbps",
		450 * Mbps:         "450.0 Mbps",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%v: got %q, want %q", float64(r), got, want)
		}
	}
}

func TestEnergyString(t *testing.T) {
	if got := (36 * MilliJoule).String(); got != "36.0 mJ" {
		t.Errorf("got %q", got)
	}
	if got := (40 * Joule).String(); got != "40.00 J" {
		t.Errorf("got %q", got)
	}
}

func TestAveragePowerZeroDuration(t *testing.T) {
	if AveragePower(100*MilliJoule, 0) != 0 {
		t.Fatal("zero duration should yield zero power")
	}
	if AveragePower(100*MilliJoule, -time.Second) != 0 {
		t.Fatal("negative duration should yield zero power")
	}
}
