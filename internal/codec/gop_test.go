package codec

import (
	"bytes"
	"testing"
)

// roundTripGOP encodes n frames through a GOP encoder with the given
// B-period and decodes them back to display order, asserting order and
// bit-exactness against a parallel reference decode.
func roundTripGOP(t *testing.T, bPeriod, n int) {
	t.Helper()
	w, h := 64, 48
	genc, err := NewGOPEncoder(w, h, DefaultEncoderConfig(), bPeriod)
	if err != nil {
		t.Fatal(err)
	}
	gdec := NewGOPDecoder()

	var displayed []*Frame
	var packets []Packet
	for i := 0; i < n; i++ {
		src := gradientFrame(w, h, i)
		src.Seq = i
		pkts, err := genc.Push(src)
		if err != nil {
			t.Fatal(err)
		}
		packets = append(packets, pkts...)
		for _, pkt := range pkts {
			out, err := gdec.Push(pkt)
			if err != nil {
				t.Fatal(err)
			}
			displayed = append(displayed, out...)
		}
	}
	tail, err := genc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	packets = append(packets, tail...)
	for _, pkt := range tail {
		out, err := gdec.Push(pkt)
		if err != nil {
			t.Fatal(err)
		}
		displayed = append(displayed, out...)
	}

	if len(displayed) != n {
		t.Fatalf("displayed %d frames, want %d", len(displayed), n)
	}
	for i, f := range displayed {
		if f.Seq != i {
			t.Fatalf("display order broken at %d: seq %d", i, f.Seq)
		}
	}
	if gdec.Pending() != 0 {
		t.Fatalf("pending frames after flush: %d", gdec.Pending())
	}

	// Bit-exactness: a plain decoder over the same packets must produce
	// identical reconstructions.
	ref := NewDecoder()
	byseq := map[int]*Frame{}
	for _, pkt := range packets {
		f, err := ref.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		byseq[f.Seq] = f
	}
	for i, f := range displayed {
		want := byseq[i]
		for p := range f.Planes {
			if !bytes.Equal(f.Planes[p], want.Planes[p]) {
				t.Fatalf("frame %d plane %d differs between GOP and plain decode", i, p)
			}
		}
	}
}

func TestGOPRoundTripNoB(t *testing.T) { roundTripGOP(t, 0, 10) }
func TestGOPRoundTripB1(t *testing.T)  { roundTripGOP(t, 1, 10) }
func TestGOPRoundTripB2(t *testing.T)  { roundTripGOP(t, 2, 13) }
func TestGOPRoundTripB3(t *testing.T)  { roundTripGOP(t, 3, 9) }

func TestGOPDecodeOrderHasAnchorsBeforeBs(t *testing.T) {
	w, h := 64, 48
	genc, _ := NewGOPEncoder(w, h, DefaultEncoderConfig(), 2)
	var packets []Packet
	for i := 0; i < 7; i++ {
		f := gradientFrame(w, h, i)
		f.Seq = i
		pkts, err := genc.Push(f)
		if err != nil {
			t.Fatal(err)
		}
		packets = append(packets, pkts...)
	}
	// Display IBBPBB(P): decode order must be I(0) P(3) B(1) B(2) P(6) B(4) B(5).
	wantSeq := []int{0, 3, 1, 2, 6, 4, 5}
	wantType := []FrameType{IFrame, PFrame, BFrame, BFrame, PFrame, BFrame, BFrame}
	if len(packets) != len(wantSeq) {
		t.Fatalf("packets = %d, want %d", len(packets), len(wantSeq))
	}
	for i, pkt := range packets {
		if pkt.Seq != wantSeq[i] || pkt.Type != wantType[i] {
			t.Fatalf("packet %d = seq %d type %v, want seq %d type %v",
				i, pkt.Seq, pkt.Type, wantSeq[i], wantType[i])
		}
	}
}

func TestGOPFlushEncodesTrailingFrames(t *testing.T) {
	genc, _ := NewGOPEncoder(64, 48, DefaultEncoderConfig(), 2)
	genc.Push(gradientFrame(64, 48, 0)) // I
	f1 := gradientFrame(64, 48, 1)
	f1.Seq = 1
	genc.Push(f1) // buffered
	pkts, err := genc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || pkts[0].Type != PFrame || pkts[0].Seq != 1 {
		t.Fatalf("flush = %+v", pkts)
	}
}

func TestGOPEncoderRejectsNegativePeriod(t *testing.T) {
	if _, err := NewGOPEncoder(64, 48, DefaultEncoderConfig(), -1); err == nil {
		t.Fatal("negative B period should fail")
	}
}

func TestBFramesAreNotReferences(t *testing.T) {
	// Corrupting a B-frame must not affect later frames (it is never a
	// reference). We verify by decoding with and without the B packet.
	w, h := 64, 48
	genc, _ := NewGOPEncoder(w, h, DefaultEncoderConfig(), 1)
	var packets []Packet
	for i := 0; i < 5; i++ {
		f := gradientFrame(w, h, i)
		f.Seq = i
		pkts, _ := genc.Push(f)
		packets = append(packets, pkts...)
	}
	full := NewDecoder()
	var fullFrames []*Frame
	for _, pkt := range packets {
		f, err := full.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		fullFrames = append(fullFrames, f)
	}
	skip := NewDecoder()
	var skipFrames []*Frame
	for _, pkt := range packets {
		if pkt.Type == BFrame {
			continue
		}
		f, err := skip.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		skipFrames = append(skipFrames, f)
	}
	// Match anchors by sequence number.
	bySeq := map[int]*Frame{}
	for _, f := range skipFrames {
		bySeq[f.Seq] = f
	}
	for _, f := range fullFrames {
		want, ok := bySeq[f.Seq]
		if !ok {
			continue // a B frame
		}
		for p := range f.Planes {
			if !bytes.Equal(f.Planes[p], want.Planes[p]) {
				t.Fatalf("anchor %d differs when B frames are dropped", f.Seq)
			}
		}
	}
}

func TestIntraModesImproveDirectionalContent(t *testing.T) {
	// A frame of pure vertical stripes is perfectly predicted by the
	// horizontal... vertical-mode predictor; all-intra encoding should
	// beat a DC-only world by a clear margin. We check it simply by
	// asserting strong compression on directional content.
	w, h := 128, 128
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := byte((x / 4) * 16)
			f.Planes[0][y*w+x] = v
			f.Planes[1][y*w+x] = v / 2
			f.Planes[2][y*w+x] = v / 3
		}
	}
	cfg := DefaultEncoderConfig()
	cfg.GOP = 1 // all intra
	enc, _ := NewEncoder(w, h, cfg)
	pkt, stats, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IntraMBs == 0 {
		t.Fatal("expected intra MBs")
	}
	if pkt.Size() > f.Size()/8 {
		t.Fatalf("directional content compressed to %d of %d; intra prediction ineffective", pkt.Size(), f.Size())
	}
	// Round trip stays bit-exact with the new modes.
	dec := NewDecoder()
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	want := enc.lastRecon
	for p := range got.Planes {
		if !bytes.Equal(got.Planes[p], want.Planes[p]) {
			t.Fatalf("plane %d drift with intra modes", p)
		}
	}
}
