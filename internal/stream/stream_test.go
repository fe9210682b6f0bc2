package stream

import (
	"math"
	"testing"
	"time"

	"burstlink/internal/units"
)

// The two bandwidth traces below are test fixtures: the service and the
// figures stream over a constant-bandwidth network, and these tests ride
// the jitter buffer through fluctuation and outages.

// FluctuatingBandwidth returns a trace oscillating around mean with the
// given relative amplitude (0..1) and period — the LTE/WiFi throughput
// sawtooth streaming stacks must ride out.
func FluctuatingBandwidth(mean units.DataRate, amplitude float64, period time.Duration) BandwidthTrace {
	if amplitude < 0 {
		amplitude = 0
	} else if amplitude > 1 {
		amplitude = 1
	}
	return func(t time.Duration) units.DataRate {
		phase := 2 * math.Pi * float64(t) / float64(period)
		return units.DataRate(float64(mean) * (1 + amplitude*math.Sin(phase)))
	}
}

// DropoutBandwidth wraps a trace with a periodic full outage of the given
// duty (fraction of each period with zero bandwidth).
func DropoutBandwidth(base BandwidthTrace, period time.Duration, duty float64) BandwidthTrace {
	return func(t time.Duration) units.DataRate {
		frac := float64(t%period) / float64(period)
		if frac < duty {
			return 0
		}
		return base(t)
	}
}

func TestConstantBandwidthDelivery(t *testing.T) {
	src := NewSource(ConstantBandwidth(8 * units.Mbps))
	// 1 MB at 8 Mbps = 1 second.
	end, err := src.DeliveryTime(0, units.MB, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if end < 990*time.Millisecond || end > 1010*time.Millisecond {
		t.Fatalf("delivery = %v, want ~1s", end)
	}
}

func TestDeliveryHorizonExceeded(t *testing.T) {
	src := NewSource(ConstantBandwidth(units.Kbps))
	if _, err := src.DeliveryTime(0, units.MB, 100*time.Millisecond); err == nil {
		t.Fatal("expected horizon error")
	}
}

func TestFluctuatingBandwidthAverages(t *testing.T) {
	tr := FluctuatingBandwidth(10*units.Mbps, 0.5, time.Second)
	// Over a whole period the sine averages out: delivery of a payload
	// sized for the mean should take about the nominal time.
	src := NewSource(tr)
	payload := units.ByteSize(10e6 / 8) // 1 second at 10 Mbps
	end, err := src.DeliveryTime(0, payload, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if end < 900*time.Millisecond || end > 1100*time.Millisecond {
		t.Fatalf("fluctuating delivery = %v, want ~1s", end)
	}
}

func TestFluctuatingAmplitudeClamped(t *testing.T) {
	tr := FluctuatingBandwidth(10*units.Mbps, 5.0, time.Second) // clamps to 1
	for ts := time.Duration(0); ts < time.Second; ts += 10 * time.Millisecond {
		if tr(ts) < 0 {
			t.Fatal("bandwidth went negative")
		}
	}
}

func TestDropout(t *testing.T) {
	tr := DropoutBandwidth(ConstantBandwidth(10*units.Mbps), time.Second, 0.3)
	if tr(100*time.Millisecond) != 0 {
		t.Fatal("expected outage at start of period")
	}
	if tr(500*time.Millisecond) != 10*units.Mbps {
		t.Fatal("expected full bandwidth after outage")
	}
}

func TestJitterBufferPushPop(t *testing.T) {
	b := NewJitterBuffer(units.MB)
	if !b.Push(300 * units.KB) {
		t.Fatal("push should fit")
	}
	if !b.Push(300 * units.KB) {
		t.Fatal("second push should fit")
	}
	if b.Push(600 * units.KB) {
		t.Fatal("push should overflow")
	}
	st := b.Stats()
	if st.Overflows != 1 || st.Frames != 2 || st.Peak != 600*units.KB {
		t.Fatalf("stats = %+v", st)
	}
	if !b.Pop(300*units.KB) || !b.Pop(300*units.KB) {
		t.Fatal("pops should succeed")
	}
	if b.Pop(300 * units.KB) {
		t.Fatal("pop from empty should fail")
	}
	if b.Stats().Underruns != 1 {
		t.Fatal("underrun not recorded")
	}
	if b.occupied != 0 {
		t.Fatal("buffer should be empty")
	}
}

func TestStreamingSteadyBandwidthNoUnderruns(t *testing.T) {
	// 4K stream: ~0.47 MB/frame at 30 FPS needs ~113 Mbps; give 150.
	frame := units.ByteSize(466560)
	src := NewSource(ConstantBandwidth(150 * units.Mbps))
	buf := NewJitterBuffer(32 * units.MB)
	st, err := SimulateStreaming(src, buf, frame, 120, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Underruns != 0 {
		t.Fatalf("underruns = %d on ample bandwidth", st.Underruns)
	}
}

func TestStreamingFluctuationToleratedWithPrebuffer(t *testing.T) {
	// §2.4: buffering tolerates bandwidth fluctuation. Mean bandwidth is
	// 1.3x the stream rate but swings ±60%.
	frame := units.ByteSize(466560)
	// Phase-shift so the stream starts in the bandwidth trough — the
	// adversarial case for a shallow buffer.
	base := FluctuatingBandwidth(150*units.Mbps, 0.6, 2*time.Second)
	trace := BandwidthTrace(func(ts time.Duration) units.DataRate { return base(ts + time.Second) })
	deep := NewJitterBuffer(64 * units.MB)
	st, err := SimulateStreaming(NewSource(trace), deep, frame, 240, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	if st.Underruns != 0 {
		t.Fatalf("underruns = %d with a 1s prebuffer", st.Underruns)
	}

	// The same stream with a one-frame prebuffer stalls.
	shallow := NewJitterBuffer(64 * units.MB)
	st2, err := SimulateStreaming(NewSource(trace), shallow, frame, 240, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Underruns == 0 {
		t.Fatal("expected stalls without prebuffering")
	}
}

func TestStreamingParamValidation(t *testing.T) {
	src := NewSource(ConstantBandwidth(units.Mbps))
	if _, err := SimulateStreaming(src, NewJitterBuffer(units.MB), units.KB, 0, 30, 1); err == nil {
		t.Fatal("zero frames should fail")
	}
	if _, err := SimulateStreaming(src, NewJitterBuffer(units.MB), units.KB, 10, 0, 1); err == nil {
		t.Fatal("zero fps should fail")
	}
}

func TestPrebufferClamping(t *testing.T) {
	frame := units.ByteSize(100 * units.KB)
	src := NewSource(ConstantBandwidth(100 * units.Mbps))
	// prebuf larger than the stream clamps; prebuf 0 clamps to 1.
	if _, err := SimulateStreaming(src, NewJitterBuffer(16*units.MB), frame, 10, 30, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateStreaming(src, NewJitterBuffer(16*units.MB), frame, 10, 30, 0); err != nil {
		t.Fatal(err)
	}
}
