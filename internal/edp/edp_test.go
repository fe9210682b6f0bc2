package edp

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"burstlink/internal/units"
)

func TestEDP14MaxBandwidth(t *testing.T) {
	// §3: "the newest eDP interface supports a maximum bandwidth of
	// 25.92 Gbps".
	got := EDP14().MaxBandwidth()
	if math.Abs(float64(got-25.92*units.Gbps)) > 1e6 {
		t.Fatalf("eDP 1.4 max = %v, want 25.92 Gbps", got)
	}
}

func TestEDP13MaxBandwidth(t *testing.T) {
	got := ConventionalPanelCaps().MaxLinkRate
	if math.Abs(float64(got-17.28*units.Gbps)) > 1e6 {
		t.Fatalf("eDP 1.3 max = %v, want 17.28 Gbps", got)
	}
}

func TestBurstTransfer4KFrame(t *testing.T) {
	// §3: a full 4K frame takes ~7.2-7.7 ms at maximum bandwidth...
	l := NewLink(EDP14(), units.RefreshRate(60).PixelRate(units.R4K, 24))
	l.SetMode(Burst)
	d := l.Transfer(units.R4K.FrameSize(24))
	if d < 7*time.Millisecond || d > 8*time.Millisecond {
		t.Fatalf("burst 4K frame = %v, want ~7.2-7.7ms", d)
	}
}

func TestPixelPacedTransferFillsWindow(t *testing.T) {
	// ...whereas conventional pacing spreads it over the whole ~16.7 ms
	// frame window (§2.5).
	l := NewLink(EDP14(), units.RefreshRate(60).PixelRate(units.R4K, 24))
	d := l.Transfer(units.R4K.FrameSize(24))
	window := units.RefreshRate(60).Window()
	if math.Abs(d.Seconds()-window.Seconds()) > 1e-4 {
		t.Fatalf("pixel-paced 4K frame = %v, want ~%v", d, window)
	}
}

func TestBurstAlwaysAtLeastAsFast(t *testing.T) {
	f := func(mpix uint8, hz uint8) bool {
		res := units.Resolution{Width: int(mpix%64+1) * 100, Height: 1000}
		rate := units.RefreshRate(hz%240 + 1)
		l := NewLink(EDP14(), rate.PixelRate(res, 24))
		paced := l.EffectiveRate()
		l.SetMode(Burst)
		return l.EffectiveRate() >= paced
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPixelRateCappedAtLinkMax(t *testing.T) {
	// A hypothetical 8K@120 pixel stream exceeds the link; the effective
	// rate must cap at the physical maximum.
	huge := units.RefreshRate(120).PixelRate(units.Resolution{Width: 7680, Height: 4320}, 24)
	l := NewLink(EDP14(), huge)
	if got := l.EffectiveRate(); got != EDP14().MaxBandwidth() {
		t.Fatalf("effective = %v, want capped at %v", got, EDP14().MaxBandwidth())
	}
}

func TestTransferAccountsBytes(t *testing.T) {
	l := NewLink(EDP14(), units.Gbps)
	l.Transfer(units.MB)
	l.Transfer(2 * units.MB)
	if l.moved != 3*units.MB {
		t.Fatalf("moved = %v", l.moved)
	}
}

func TestTransferOnOffLinkPanics(t *testing.T) {
	l := NewLink(EDP14(), units.Gbps)
	l.SetState(LinkOff)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Transfer(units.KB)
}

func TestSidebandQueue(t *testing.T) {
	l := NewLink(EDP14(), units.Gbps)
	l.SendSideband(SidebandMsg{Kind: PSREnter})
	l.SendSideband(SidebandMsg{Kind: PSR2Update, Region: Rect{X: 10, Y: 20, W: 640, H: 360}})
	msgs := l.DrainSideband()
	if len(msgs) != 2 || msgs[0].Kind != PSREnter || msgs[1].Region.Pixels() != 640*360 {
		t.Fatalf("sideband = %+v", msgs)
	}
	if len(l.DrainSideband()) != 0 {
		t.Fatal("drain did not clear queue")
	}
}

func TestSidebandOnPoweredDownLinkPanics(t *testing.T) {
	l := NewLink(EDP14(), units.Gbps)
	l.SetState(LinkOff)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.SendSideband(SidebandMsg{Kind: PSRExit})
}

func TestSidebandAllowedInLowPower(t *testing.T) {
	// PSR exit is signaled while the main link is in fast-wake standby.
	l := NewLink(EDP14(), units.Gbps)
	l.SetState(LinkLowPower)
	l.SendSideband(SidebandMsg{Kind: PSRExit})
	if got := l.DrainSideband(); len(got) != 1 {
		t.Fatalf("sideband = %+v", got)
	}
}

// Intersects reports whether two rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

func TestRectGeometry(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 100, H: 100}
	b := Rect{X: 50, Y: 50, W: 100, H: 100}
	c := Rect{X: 200, Y: 200, W: 10, H: 10}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("overlapping rects should intersect")
	}
	if a.Intersects(c) {
		t.Fatal("disjoint rects should not intersect")
	}
	if (Rect{W: 0, H: 10}).Empty() != true || a.Empty() {
		t.Fatal("Empty wrong")
	}
}

func TestModeAndStateStrings(t *testing.T) {
	if PixelPaced.String() != "pixel-paced" || Burst.String() != "burst" {
		t.Fatal("mode names wrong")
	}
	if LinkOn.String() != "on" || LinkOff.String() != "off" {
		t.Fatal("state names wrong")
	}
	if PowerState(9).String() != "PowerState(9)" || SidebandKind(9).String() != "SidebandKind(9)" {
		t.Fatal("out-of-range names wrong")
	}
	if FrameReady.String() != "FRAME_READY" {
		t.Fatal("sideband names wrong")
	}
}
