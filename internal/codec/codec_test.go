package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gradientFrame synthesizes a smooth test frame with a moving bright
// square, the kind of content video motion search thrives on.
func gradientFrame(w, h, seq int) *Frame {
	f := NewFrame(w, h)
	f.Seq = seq
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			f.Planes[0][i] = byte((x*255/w + seq) & 0xFF)
			f.Planes[1][i] = byte((y * 255 / h) & 0xFF)
			f.Planes[2][i] = byte(((x + y) / 2) & 0xFF)
		}
	}
	// Moving square: shifts 4 px right each frame.
	sx := (seq * 4) % (w - 24)
	for y := 8; y < 24 && y < h; y++ {
		for x := sx; x < sx+16 && x < w; x++ {
			f.Planes[0][y*w+x] = 250
		}
	}
	return f
}

func noiseFrame(w, h int, seed int64) *Frame {
	rng := rand.New(rand.NewSource(seed))
	f := NewFrame(w, h)
	for p := range f.Planes {
		rng.Read(f.Planes[p])
	}
	return f
}

func TestFrameAccessors(t *testing.T) {
	f := NewFrame(16, 8)
	f.Set(0, 3, 2, 99)
	if f.At(0, 3, 2) != 99 {
		t.Fatal("set/get failed")
	}
	// Edge clamping.
	f.Set(0, 0, 0, 7)
	if f.At(0, -5, -5) != 7 {
		t.Fatal("negative coords should clamp to (0,0)")
	}
	f.Set(0, 15, 7, 8)
	if f.At(0, 100, 100) != 8 {
		t.Fatal("overflow coords should clamp to max")
	}
	f.Set(0, -1, 0, 1) // must not panic or write
	if f.At(0, 0, 0) != 7 {
		t.Fatal("out-of-bounds write leaked")
	}
}

// fromInterleaved is Interleaved's inverse, the reference its round trip
// is checked against: it fills f from packed 3-byte pixels.
func fromInterleaved(f *Frame, data []byte) error {
	if len(data) != f.Size() {
		return fmt.Errorf("codec: interleaved data %d bytes, want %d", len(data), f.Size())
	}
	n := f.W * f.H
	for i := 0; i < n; i++ {
		f.Planes[0][i] = data[3*i]
		f.Planes[1][i] = data[3*i+1]
		f.Planes[2][i] = data[3*i+2]
	}
	return nil
}

// PSNR returns the peak signal-to-noise ratio between two equally-sized
// frames in dB, the standard lossy-codec quality metric the tests and
// examples grade reconstructions with. Identical frames return +Inf.
func PSNR(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("codec: PSNR dimensions %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var se float64
	for p := range a.Planes {
		for i := range a.Planes[p] {
			d := float64(a.Planes[p][i]) - float64(b.Planes[p][i])
			se += d * d
		}
	}
	if se == 0 {
		return math.Inf(1), nil
	}
	mse := se / float64(3*a.W*a.H)
	return 10 * math.Log10(255*255/mse), nil
}

func TestInterleavedRoundTrip(t *testing.T) {
	f := noiseFrame(32, 16, 3)
	g := NewFrame(32, 16)
	if err := fromInterleaved(g, f.Interleaved()); err != nil {
		t.Fatal(err)
	}
	for p := range f.Planes {
		if !bytes.Equal(f.Planes[p], g.Planes[p]) {
			t.Fatalf("plane %d mismatch", p)
		}
	}
	if err := fromInterleaved(g, []byte{1, 2, 3}); err == nil {
		t.Fatal("short data should error")
	}
}

func TestInterleavedInto(t *testing.T) {
	f := noiseFrame(32, 16, 5)
	want := f.Interleaved()

	// Undersized and nil destinations reallocate.
	if got := f.InterleavedInto(nil); !bytes.Equal(got, want) {
		t.Fatal("InterleavedInto(nil) differs from Interleaved")
	}
	if got := f.InterleavedInto(make([]byte, 10)); !bytes.Equal(got, want) {
		t.Fatal("InterleavedInto(short) differs from Interleaved")
	}

	// A big-enough destination is reused in place.
	dst := make([]byte, f.Size()+100)
	got := f.InterleavedInto(dst)
	if !bytes.Equal(got, want) {
		t.Fatal("InterleavedInto(sized) differs from Interleaved")
	}
	if &got[0] != &dst[0] {
		t.Fatal("InterleavedInto reallocated a sufficient destination")
	}
	if len(got) != f.Size() {
		t.Fatalf("InterleavedInto length %d, want %d", len(got), f.Size())
	}
}

func TestPSNRIdentical(t *testing.T) {
	f := gradientFrame(64, 48, 0)
	v, err := PSNR(f, f)
	if err != nil || !math.IsInf(v, 1) {
		t.Fatalf("PSNR(f,f) = %v, %v", v, err)
	}
	if _, err := PSNR(f, NewFrame(32, 32)); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestEncodeDecodeIntraBitExact(t *testing.T) {
	// Decoder output must match the encoder's own reconstruction exactly.
	w, h := 64, 48
	enc, err := NewEncoder(w, h, DefaultEncoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	src := gradientFrame(w, h, 0)
	pkt, stats, err := enc.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Type != IFrame {
		t.Fatalf("first frame type = %v, want I", stats.Type)
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	want := enc.lastRecon
	for p := range got.Planes {
		if !bytes.Equal(got.Planes[p], want.Planes[p]) {
			t.Fatalf("plane %d: decoder != encoder reconstruction", p)
		}
	}
	if got.Seq != src.Seq {
		t.Fatalf("seq = %d", got.Seq)
	}
}

func TestEncodeDecodeSequenceBitExact(t *testing.T) {
	w, h := 80, 48
	cfg := DefaultEncoderConfig()
	cfg.GOP = 5
	enc, _ := NewEncoder(w, h, cfg)
	dec := NewDecoder()
	for i := 0; i < 12; i++ {
		src := gradientFrame(w, h, i)
		src.Seq = i
		pkt, stats, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		wantType := PFrame
		if i%5 == 0 {
			wantType = IFrame
		}
		if stats.Type != wantType {
			t.Fatalf("frame %d type = %v, want %v", i, stats.Type, wantType)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := enc.lastRecon
		for p := range got.Planes {
			if !bytes.Equal(got.Planes[p], want.Planes[p]) {
				t.Fatalf("frame %d plane %d: decode drift", i, p)
			}
		}
	}
	if dec.frames != 12 {
		t.Fatalf("decoded %d frames", dec.frames)
	}
}

func TestDecodedQualityReasonable(t *testing.T) {
	w, h := 96, 64
	cfg := DefaultEncoderConfig()
	cfg.Quality = 75
	enc, _ := NewEncoder(w, h, cfg)
	dec := NewDecoder()
	src := gradientFrame(w, h, 0)
	pkt, _, _ := enc.Encode(src)
	got, _ := dec.Decode(pkt)
	psnr, _ := PSNR(src, got)
	if psnr < 30 {
		t.Fatalf("PSNR = %.1f dB, want >= 30", psnr)
	}
}

func TestHigherQualityHigherPSNRAndBytes(t *testing.T) {
	w, h := 96, 64
	src := gradientFrame(w, h, 0)
	run := func(q int) (float64, int) {
		cfg := DefaultEncoderConfig()
		cfg.Quality = q
		enc, _ := NewEncoder(w, h, cfg)
		dec := NewDecoder()
		pkt, _, _ := enc.Encode(src)
		got, _ := dec.Decode(pkt)
		p, _ := PSNR(src, got)
		return p, pkt.Size()
	}
	loP, loB := run(20)
	hiP, hiB := run(90)
	if hiP <= loP {
		t.Fatalf("PSNR q90 %.1f <= q20 %.1f", hiP, loP)
	}
	if hiB <= loB {
		t.Fatalf("bytes q90 %d <= q20 %d", hiB, loB)
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	w, h := 128, 96
	src := gradientFrame(w, h, 0)
	enc, _ := NewEncoder(w, h, DefaultEncoderConfig())
	pkt, _, _ := enc.Encode(src)
	if pkt.Size() >= src.Size()/3 {
		t.Fatalf("encoded %d bytes vs raw %d: compression too weak", pkt.Size(), src.Size())
	}
}

func TestStaticSceneMostlySkip(t *testing.T) {
	// Encoding the same frame twice: the P-frame should be nearly all
	// skip macroblocks and tiny.
	w, h := 96, 64
	src := gradientFrame(w, h, 0)
	enc, _ := NewEncoder(w, h, DefaultEncoderConfig())
	enc.Encode(src)
	pkt, stats, _ := enc.Encode(src)
	total := stats.IntraMBs + stats.InterMBs + stats.Skip
	if stats.Skip < total*9/10 {
		t.Fatalf("skip = %d of %d MBs, want >= 90%%", stats.Skip, total)
	}
	if pkt.Size() > 200 {
		t.Fatalf("static P-frame = %d bytes, want tiny", pkt.Size())
	}
}

func TestMotionCompensationUsed(t *testing.T) {
	// A pure translation should be captured by inter MBs, making the
	// P-frame far smaller than the I-frame.
	w, h := 128, 96
	enc, _ := NewEncoder(w, h, DefaultEncoderConfig())
	f0 := noiseTexture(w, h, 0, 0)
	f1 := noiseTexture(w, h, 4, 0) // shifted 4 px
	pktI, _, _ := enc.Encode(f0)
	pktP, stats, _ := enc.Encode(f1)
	if stats.InterMBs == 0 {
		t.Fatal("no inter MBs on translated content")
	}
	if pktP.Size() >= pktI.Size()/2 {
		t.Fatalf("P %d bytes vs I %d: motion compensation ineffective", pktP.Size(), pktI.Size())
	}
}

// noiseTexture builds a fixed random texture shifted by (dx, dy): ideal
// motion-estimation bait.
func noiseTexture(w, h, dx, dy int) *Frame {
	rng := rand.New(rand.NewSource(99))
	base := make([]byte, (w+32)*(h+32))
	rng.Read(base)
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := base[(y+16-dy)*(w+32)+(x+16-dx)]
			f.Planes[0][y*w+x] = v
			f.Planes[1][y*w+x] = v / 2
			f.Planes[2][y*w+x] = v / 3
		}
	}
	return f
}

func TestBFrameEncodeDecode(t *testing.T) {
	w, h := 64, 48
	enc, _ := NewEncoder(w, h, DefaultEncoderConfig())
	dec := NewDecoder()
	for i := 0; i < 2; i++ {
		pkt, _, err := enc.Encode(gradientFrame(w, h, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(pkt); err != nil {
			t.Fatal(err)
		}
	}
	pkt, _, err := enc.EncodeAs(gradientFrame(w, h, 2), BFrame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	want := enc.lastRecon
	for p := range got.Planes {
		if !bytes.Equal(got.Planes[p], want.Planes[p]) {
			t.Fatalf("B-frame plane %d drift", p)
		}
	}
}

func TestBFrameNeedsTwoRefs(t *testing.T) {
	enc, _ := NewEncoder(64, 48, DefaultEncoderConfig())
	if _, _, err := enc.EncodeAs(gradientFrame(64, 48, 0), BFrame); err == nil {
		t.Fatal("B-frame without references should fail")
	}
}

func TestPFrameNeedsRef(t *testing.T) {
	enc, _ := NewEncoder(64, 48, DefaultEncoderConfig())
	if _, _, err := enc.EncodeAs(gradientFrame(64, 48, 0), PFrame); err == nil {
		t.Fatal("P-frame without reference should fail")
	}
	dec := NewDecoder()
	// Forge a P packet for a fresh decoder.
	enc2, _ := NewEncoder(64, 48, DefaultEncoderConfig())
	enc2.Encode(gradientFrame(64, 48, 0))
	pkt, _, _ := enc2.EncodeAs(gradientFrame(64, 48, 1), PFrame)
	if _, err := dec.Decode(pkt); err == nil {
		t.Fatal("decoder must reject P-frame with no reference")
	}
}

func TestDecodeCorruptStream(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.Decode(Packet{Data: []byte{0x00}}); err == nil {
		t.Fatal("corrupt packet should error")
	}
	if _, err := dec.Decode(Packet{Data: nil}); err == nil {
		t.Fatal("empty packet should error")
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	enc, _ := NewEncoder(64, 48, DefaultEncoderConfig())
	pkt, _, _ := enc.Encode(gradientFrame(64, 48, 0))
	for _, cut := range []int{1, len(pkt.Data) / 4, len(pkt.Data) / 2} {
		dec := NewDecoder()
		if _, err := dec.Decode(Packet{Type: pkt.Type, Data: pkt.Data[:cut]}); err == nil {
			t.Fatalf("truncated at %d bytes should error", cut)
		}
	}
}

func TestRowSinkStreamsWholeFrame(t *testing.T) {
	w, h := 64, 48
	enc, _ := NewEncoder(w, h, DefaultEncoderConfig())
	dec := NewDecoder()
	var rows []int
	var total int
	dec.SetRowSink(func(row int, data []byte) {
		rows = append(rows, row)
		total += len(data)
	})
	pkt, _, _ := enc.Encode(gradientFrame(w, h, 0))
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 48/16 macroblock rows
		t.Fatalf("rows = %v, want 3 rows", rows)
	}
	for i, r := range rows {
		if r != i {
			t.Fatalf("row order = %v", rows)
		}
	}
	if total != got.Size() {
		t.Fatalf("streamed %d bytes, frame is %d", total, got.Size())
	}
}

func TestOddDimensions(t *testing.T) {
	// Dimensions not multiple of 16 must round-trip (edge MBs clamped).
	w, h := 70, 42
	enc, err := NewEncoder(w, h, DefaultEncoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	pkt, _, err := enc.Encode(gradientFrame(w, h, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	want := enc.lastRecon
	for p := range got.Planes {
		if !bytes.Equal(got.Planes[p], want.Planes[p]) {
			t.Fatalf("plane %d drift on odd dimensions", p)
		}
	}
}

func TestEncoderRejectsBadInput(t *testing.T) {
	if _, err := NewEncoder(0, 10, DefaultEncoderConfig()); err == nil {
		t.Fatal("zero width should fail")
	}
	enc, _ := NewEncoder(64, 48, DefaultEncoderConfig())
	if _, _, err := enc.Encode(NewFrame(32, 32)); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestSearchMotionFindsTranslation(t *testing.T) {
	w, h := 64, 64
	ref := noiseTexture(w, h, 0, 0)
	cur := noiseTexture(w, h, 3, -2)
	mv, sad := searchMotion(cur, ref, 16, 16, 8)
	if mv.DX != -3 || mv.DY != 2 {
		t.Fatalf("mv = %+v (sad %d), want (-3, 2)", mv, sad)
	}
	if sad != 0 {
		t.Fatalf("sad = %d, want 0 for exact translation", sad)
	}
}

func TestFrameTypeString(t *testing.T) {
	if IFrame.String() != "I" || PFrame.String() != "P" || BFrame.String() != "B" {
		t.Fatal("names wrong")
	}
	if FrameType(9).String() != "FrameType(9)" {
		t.Fatal("out-of-range wrong")
	}
}

func TestClonedFrameIndependent(t *testing.T) {
	f := gradientFrame(32, 32, 0)
	g := f.Clone()
	g.Planes[0][0] = ^g.Planes[0][0]
	if f.Planes[0][0] == g.Planes[0][0] {
		t.Fatal("clone aliases original")
	}
}
