package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"burstlink/internal/units"
)

// noisyFrame is hard to compress; gradient frames are easy — the
// controller must adapt across both.
func noisyFrameRC(w, h int, seed int64) *Frame {
	rng := rand.New(rand.NewSource(seed))
	f := NewFrame(w, h)
	for p := range f.Planes {
		rng.Read(f.Planes[p])
	}
	return f
}

func TestRateControllerConverges(t *testing.T) {
	w, h := 128, 96
	// Budget: 2 Mbps at 30 FPS ≈ 8.3 KB/frame.
	rc, err := NewRateController(2*units.Mbps, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewRateControlledEncoder(w, h, DefaultEncoderConfig(), rc)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	for i := 0; i < 60; i++ {
		f := noisyFrameRC(w, h, int64(i))
		f.Seq = i
		pkt, _, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Per-packet quality: decode must stay bit-exact even as the
		// quant table changes mid-stream.
		want := enc.enc.lastRecon
		for p := range got.Planes {
			if !bytes.Equal(got.Planes[p], want.Planes[p]) {
				t.Fatalf("frame %d plane %d drift under rate control", i, p)
			}
		}
	}
	avg := rc.AverageFrameBytes()
	target := rc.TargetFrameBytes()
	// Converge within 2x of the target despite noise content (the floor
	// quality bounds how small noisy frames can get).
	if avg > 2*target {
		t.Fatalf("average %v vs target %v: controller not tracking", avg, target)
	}
	if rc.Quality() >= 50 {
		t.Fatalf("quality %d should have dropped for noisy content on a tight budget", rc.Quality())
	}
}

func TestRateControllerRaisesQualityOnEasyContent(t *testing.T) {
	w, h := 128, 96
	// Generous budget: 20 Mbps.
	rc, _ := NewRateController(20*units.Mbps, 30, 30)
	enc, _ := NewRateControlledEncoder(w, h, DefaultEncoderConfig(), rc)
	for i := 0; i < 30; i++ {
		f := gradientFrame(w, h, 0) // static, easy
		f.Seq = i
		if _, _, err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Quality() <= 30 {
		t.Fatalf("quality %d should have risen on easy content", rc.Quality())
	}
}

func TestRateControllerBounds(t *testing.T) {
	rc, _ := NewRateController(units.Kbps, 30, 50) // impossible budget
	for i := 0; i < 50; i++ {
		rc.Observe(1 << 20) // huge frames
	}
	if rc.Quality() < 5 {
		t.Fatalf("quality %d fell below the floor", rc.Quality())
	}
	rc2, _ := NewRateController(units.Gbps, 30, 50)
	for i := 0; i < 50; i++ {
		rc2.Observe(10) // tiny frames
	}
	if rc2.Quality() > 95 {
		t.Fatalf("quality %d exceeded the ceiling", rc2.Quality())
	}
}

func TestRateControllerValidation(t *testing.T) {
	if _, err := NewRateController(0, 30, 50); err == nil {
		t.Fatal("zero bitrate should fail")
	}
	if _, err := NewRateController(units.Mbps, 0, 50); err == nil {
		t.Fatal("zero fps should fail")
	}
	if _, err := NewRateControlledEncoder(64, 48, DefaultEncoderConfig(), nil); err == nil {
		t.Fatal("nil controller should fail")
	}
	rc, _ := NewRateController(units.Mbps, 30, 999)
	if rc.Quality() != 50 {
		t.Fatal("out-of-range start quality should default to 50")
	}
	if rc.AverageFrameBytes() != 0 {
		t.Fatal("no frames yet")
	}
}
