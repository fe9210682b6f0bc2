package codec

import (
	"bytes"
	"testing"
)

// blockyFrame is a smooth diagonal gradient — block transforms at low
// quality turn it into visible 8×8 staircases, the deblocking filter's
// target case.
func blockyFrame(w, h int) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := byte((x + y) * 255 / (w + h))
			f.Planes[0][y*w+x] = v
			f.Planes[1][y*w+x] = v
			f.Planes[2][y*w+x] = v
		}
	}
	return f
}

func encodeDecodeOnce(t *testing.T, cfg EncoderConfig, src *Frame) *Frame {
	t.Helper()
	enc, err := NewEncoder(src.W, src.H, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt, _, err := enc.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-exactness against the encoder's reconstruction must hold with
	// and without the filter.
	want := enc.lastRecon
	for p := range got.Planes {
		if !bytes.Equal(got.Planes[p], want.Planes[p]) {
			t.Fatalf("plane %d drift (deblock=%v)", p, !cfg.NoDeblock)
		}
	}
	return got
}

func TestDeblockImprovesQualityAtLowBitrate(t *testing.T) {
	src := blockyFrame(128, 128)
	low := DefaultEncoderConfig()
	low.Quality = 8
	low.GOP = 1

	withFilter := encodeDecodeOnce(t, low, src)
	noFilter := low
	noFilter.NoDeblock = true
	without := encodeDecodeOnce(t, noFilter, src)

	pWith, _ := PSNR(src, withFilter)
	pWithout, _ := PSNR(src, without)
	if pWith <= pWithout {
		t.Fatalf("deblocking should improve low-bitrate PSNR: %.2f vs %.2f dB", pWith, pWithout)
	}
}

func TestDeblockPreservesRealEdges(t *testing.T) {
	// A hard edge far above the threshold must pass through untouched.
	f := NewFrame(32, 32)
	for y := 0; y < 32; y++ {
		for x := 16; x < 32; x++ {
			f.Planes[0][y*32+x] = 255
		}
	}
	before := append([]byte(nil), f.Planes[0]...)
	deblockFrame(f, 50)
	if !bytes.Equal(before, f.Planes[0]) {
		t.Fatal("a 255-step real edge must not be smoothed")
	}
}

func TestDeblockSmoothsSmallSteps(t *testing.T) {
	// A small step at a block boundary is an artifact: smooth it.
	f := NewFrame(32, 32)
	for y := 0; y < 32; y++ {
		for x := 8; x < 32; x++ {
			f.Planes[0][y*32+x] = 6 // small step at the x=8 boundary
		}
	}
	deblockFrame(f, 20) // coarse quality → threshold above 6
	if f.Planes[0][8] == 6 || f.Planes[0][7] == 0 {
		t.Fatalf("boundary not smoothed: p0=%d q0=%d", f.Planes[0][7], f.Planes[0][8])
	}
}

func TestDeblockNearLosslessIsNoop(t *testing.T) {
	f := blockyFrame(64, 64)
	before := append([]byte(nil), f.Planes[0]...)
	deblockFrame(f, 100) // threshold 1 → filter disabled
	if !bytes.Equal(before, f.Planes[0]) {
		t.Fatal("near-lossless quality should disable the filter")
	}
}

func TestRowSinkMatchesOutputWithDeblock(t *testing.T) {
	// The streamed rows must byte-match the returned (filtered) frame.
	w, h := 64, 48
	enc, _ := NewEncoder(w, h, DefaultEncoderConfig())
	pkt, _, _ := enc.Encode(blockyFrame(w, h))
	dec := NewDecoder()
	var streamed []byte
	dec.SetRowSink(func(_ int, data []byte) { streamed = append(streamed, data...) })
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, got.Interleaved()) {
		t.Fatal("row sink bytes differ from the decoded frame")
	}
}
