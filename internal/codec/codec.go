// Package codec implements a complete, functional macroblock video codec
// in the mold the paper describes (§2.4): frames are split into 16×16
// macroblocks; each macroblock is either intra-coded (I-type, predicted
// from neighboring pixels of the same frame) or inter-coded (P/B-type,
// motion-compensated from previously decoded reference frames as directed
// by motion vectors in the macroblock metadata); residuals pass through an
// 8×8 integer DCT, quantization, zigzag scan, run-length coding, and
// Exp-Golomb entropy coding.
//
// The codec is real: the encoder produces a parseable bitstream and the
// decoder reconstructs it bit-exactly against the encoder's own
// reconstruction. The display-pipeline simulators run it to generate the
// byte traffic whose movement BurstLink optimizes, so the data-movement
// numbers in the experiments come from actual decoded data rather than
// assumed constants. The decoder additionally streams reconstructed
// macroblock rows through a sink callback, which is the hook the
// destination selector (§4.4) uses to route output either to the DRAM
// frame buffer or directly to the display controller.
package codec

import (
	"fmt"
)

// MBSize is the macroblock edge length in pixels. The paper notes encoded
// macroblocks of 16×16, 32×32, or 64×64 (§2.4); we use 16×16 throughout.
const MBSize = 16

// blockSize is the transform block edge (8×8 DCT).
const blockSize = 8

// Frame is a planar 3-channel image (full-resolution chroma, i.e. 4:4:4).
type Frame struct {
	W, H   int
	Planes [3][]byte // Y'CbCr or RGB; the codec is colorspace-agnostic
	Seq    int       // display-order sequence number
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame {
	f := &Frame{W: w, H: h}
	for i := range f.Planes {
		f.Planes[i] = make([]byte, w*h)
	}
	return f
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	out := &Frame{W: f.W, H: f.H, Seq: f.Seq}
	for i := range f.Planes {
		out.Planes[i] = append([]byte(nil), f.Planes[i]...)
	}
	return out
}

// Size returns the raw byte size (3 bytes per pixel).
func (f *Frame) Size() int { return 3 * f.W * f.H }

// At returns the sample of plane p at (x, y), clamping coordinates to the
// frame edge (the padding rule intra prediction and motion compensation
// use at borders).
func (f *Frame) At(p, x, y int) byte {
	if x < 0 {
		x = 0
	} else if x >= f.W {
		x = f.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= f.H {
		y = f.H - 1
	}
	return f.Planes[p][y*f.W+x]
}

// Set writes the sample of plane p at (x, y); out-of-bounds writes are
// dropped.
func (f *Frame) Set(p, x, y int, v byte) {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return
	}
	f.Planes[p][y*f.W+x] = v
}

// Interleaved returns the frame as packed 3-byte pixels, the layout the
// display pipeline moves around.
func (f *Frame) Interleaved() []byte {
	return f.InterleavedInto(nil)
}

// InterleavedInto packs the frame into dst, reusing its backing array
// when it has the capacity (callers with pooled buffers avoid the
// per-frame allocation of Interleaved). A nil or undersized dst is
// reallocated. Returns the packed slice.
func (f *Frame) InterleavedInto(dst []byte) []byte {
	if cap(dst) < f.Size() {
		dst = make([]byte, f.Size())
	}
	dst = dst[:f.Size()]
	n := f.W * f.H
	for i := 0; i < n; i++ {
		dst[3*i] = f.Planes[0][i]
		dst[3*i+1] = f.Planes[1][i]
		dst[3*i+2] = f.Planes[2][i]
	}
	return dst
}

// FrameType tags a frame's prediction structure (§2.4).
type FrameType int

// Frame types.
const (
	IFrame FrameType = iota // intra only: no references
	PFrame                  // predicted from the previous decoded frame
	BFrame                  // bidirectional: previous and next decoded frames
)

var frameTypeNames = [...]string{"I", "P", "B"}

// String returns "I", "P", or "B".
func (t FrameType) String() string {
	if t < 0 || int(t) >= len(frameTypeNames) {
		return fmt.Sprintf("FrameType(%d)", int(t))
	}
	return frameTypeNames[t]
}

// mbMode is the per-macroblock coding mode.
type mbMode int

const (
	mbIntra mbMode = iota // DC-predicted from neighboring decoded pixels
	mbInter               // motion-compensated from reference frame(s)
	mbSkip                // inter with zero MV and no residual
)

// MotionVector is a full-pel displacement into a reference frame.
type MotionVector struct {
	DX, DY int
}

// mbCount returns the macroblock grid dimensions for a w×h frame.
func mbCount(w, h int) (mbw, mbh int) {
	return (w + MBSize - 1) / MBSize, (h + MBSize - 1) / MBSize
}
