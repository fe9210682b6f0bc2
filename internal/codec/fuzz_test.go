package codec

import (
	"testing"
)

// fillFromSeed fills a frame's planes deterministically from fuzz bytes:
// the corpus bytes tile across all three planes, perturbed by a xorshift
// stream so short inputs still produce varied pixel data.
func fillFromSeed(f *Frame, data []byte) {
	state := uint32(2463534242)
	for i := range data {
		state ^= uint32(data[i]) << (8 * uint(i%4))
	}
	for p := range f.Planes {
		for i := range f.Planes[p] {
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			b := byte(state)
			if len(data) > 0 {
				b ^= data[(p*len(f.Planes[p])+i)%len(data)]
			}
			f.Planes[p][i] = b
		}
	}
}

// FuzzEncodeDecodeRoundTrip checks the codec's core contract on
// arbitrary pixel data: the decoder's output is bit-exact against the
// encoder's own reconstruction (the "lossless path" — quantization loss
// happens on the encoder side; decode adds none), for an I-frame and a
// following P-frame.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(32), uint8(32), uint8(50))
	f.Add([]byte{0x00, 0xff, 0x7f, 0x01}, uint8(16), uint8(16), uint8(90))
	f.Add([]byte("burstlink"), uint8(48), uint8(24), uint8(10))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint8(17), uint8(3), uint8(50)) // non-MB-aligned dims
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(1), uint8(99))

	f.Fuzz(func(t *testing.T, data []byte, wRaw, hRaw, qRaw uint8) {
		w := int(wRaw)%48 + 1
		h := int(hRaw)%48 + 1
		quality := int(qRaw)%100 + 1
		enc, err := NewEncoder(w, h, EncoderConfig{Quality: quality, GOP: 2, SearchWindow: 4})
		if err != nil {
			t.Fatalf("NewEncoder(%d,%d): %v", w, h, err)
		}
		dec := NewDecoder()

		src := NewFrame(w, h)
		fillFromSeed(src, data)
		for frameIdx := 0; frameIdx < 2; frameIdx++ {
			pkt, stats, err := enc.Encode(src)
			if err != nil {
				t.Fatalf("frame %d: encode: %v", frameIdx, err)
			}
			if int(stats.Bytes) != len(pkt.Data) {
				t.Fatalf("frame %d: stats.Bytes = %d, packet = %d bytes", frameIdx, stats.Bytes, len(pkt.Data))
			}
			got, err := dec.Decode(pkt)
			if err != nil {
				t.Fatalf("frame %d: decode of valid packet: %v", frameIdx, err)
			}
			want := enc.lastRecon
			if got.W != want.W || got.H != want.H {
				t.Fatalf("frame %d: decoded %dx%d, reconstruction %dx%d", frameIdx, got.W, got.H, want.W, want.H)
			}
			for p := range want.Planes {
				for i := range want.Planes[p] {
					if got.Planes[p][i] != want.Planes[p][i] {
						t.Fatalf("frame %d: plane %d byte %d: decoded %d, encoder reconstruction %d",
							frameIdx, p, i, got.Planes[p][i], want.Planes[p][i])
					}
				}
			}
			// Perturb the source so the P-frame has real residuals.
			for i := range src.Planes[0] {
				src.Planes[0][i] ^= byte(i)
			}
		}
	})
}
