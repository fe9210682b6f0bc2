package codec

import (
	"fmt"

	"burstlink/internal/par"
	"burstlink/internal/units"
)

// EncoderConfig tunes the encoder.
type EncoderConfig struct {
	// Quality in [1,100] scales the quantization matrix (50 = base).
	Quality int
	// GOP is the intra period: every GOP-th frame is an I-frame. 1 means
	// all-intra; 0 defaults to 30.
	GOP int
	// SearchWindow is the full-pel motion search range (± pixels).
	SearchWindow int
	// SkipThreshold is the max zero-MV SAD for a macroblock to be coded
	// as skip.
	SkipThreshold int
	// NoDeblock disables the in-loop deblocking filter (on by default).
	NoDeblock bool
}

// DefaultEncoderConfig returns a streaming-video oriented configuration.
func DefaultEncoderConfig() EncoderConfig {
	return EncoderConfig{Quality: 50, GOP: 30, SearchWindow: 8, SkipThreshold: 2 * MBSize * MBSize}
}

// EncodeStats summarizes one encoded frame.
type EncodeStats struct {
	Type                     FrameType
	Bytes                    units.ByteSize
	IntraMBs, InterMBs, Skip int
}

// Packet is one encoded frame: a self-contained bitstream payload.
type Packet struct {
	Type FrameType
	Seq  int // display-order sequence number
	Data []byte
}

// Size returns the encoded payload size in bytes.
func (p Packet) Size() int { return len(p.Data) }

// Encoder compresses a sequence of frames. It maintains the decoded
// reference frames exactly as the decoder will reconstruct them, so
// encoder and decoder stay bit-identical.
type Encoder struct {
	cfg   EncoderConfig
	w, h  int
	table [blockSize * blockSize]int32
	count int // frames encoded, for GOP placement

	// refs holds up to the last two reconstructed *reference* frames
	// (I/P) in decode order: refs[len-1] is the most recent. B-frames
	// are never references.
	refs []*Frame
	// lastRecon is the reconstruction of the most recently encoded
	// frame of any type.
	lastRecon *Frame
}

// NewEncoder builds an encoder for w×h frames.
func NewEncoder(w, h int, cfg EncoderConfig) (*Encoder, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("codec: invalid dimensions %dx%d", w, h)
	}
	if cfg.GOP == 0 {
		cfg.GOP = 30
	}
	if cfg.Quality == 0 {
		cfg.Quality = 50
	}
	if cfg.SearchWindow == 0 {
		cfg.SearchWindow = 8
	}
	e := &Encoder{cfg: cfg, w: w, h: h, table: quantTable(cfg.Quality)}
	return e, nil
}

// Encode compresses f as the next frame in the stream, choosing I or P per
// the GOP setting.
func (e *Encoder) Encode(f *Frame) (Packet, EncodeStats, error) {
	t := PFrame
	if e.count%e.cfg.GOP == 0 || len(e.refs) == 0 {
		t = IFrame
	}
	return e.EncodeAs(f, t)
}

// EncodeAs compresses f with an explicit frame type. B-frames require two
// reference frames already encoded (the bidirectional pair).
func (e *Encoder) EncodeAs(f *Frame, t FrameType) (Packet, EncodeStats, error) {
	if f.W != e.w || f.H != e.h {
		return Packet{}, EncodeStats{}, fmt.Errorf("codec: frame %dx%d, encoder %dx%d", f.W, f.H, e.w, e.h)
	}
	switch t {
	case PFrame:
		if len(e.refs) == 0 {
			return Packet{}, EncodeStats{}, fmt.Errorf("codec: P-frame with no reference")
		}
	case BFrame:
		if len(e.refs) < 2 {
			return Packet{}, EncodeStats{}, fmt.Errorf("codec: B-frame needs two references")
		}
	}

	var w BitWriter
	// Packet header: type, seq, dimensions, quality — self-contained.
	w.WriteUE(uint64(t))
	w.WriteUE(uint64(f.Seq))
	w.WriteUE(uint64(e.w))
	w.WriteUE(uint64(e.h))
	w.WriteUE(uint64(e.cfg.Quality))
	deblock := uint64(1)
	if e.cfg.NoDeblock {
		deblock = 0
	}
	w.WriteUE(deblock)

	recon := NewFrame(e.w, e.h)
	recon.Seq = f.Seq
	var fwd, bwd *Frame
	if len(e.refs) >= 1 {
		bwd = e.refs[len(e.refs)-1] // most recent
	}
	if len(e.refs) >= 2 {
		fwd = e.refs[len(e.refs)-2]
	} else {
		fwd = bwd
	}

	stats := EncodeStats{Type: t}
	mbw, mbh := mbCount(e.w, e.h)

	// Phase 1 (parallel): per-macroblock work that depends only on the
	// source frame and the already-final reference frames — motion search,
	// the skip test, the bidirectional SAD, and the transform/quant of the
	// inter-hypothesis residual. Macroblock rows are independent here, so
	// the rows fan out over the worker pool; because none of it reads the
	// in-progress reconstruction, the results are identical to the serial
	// encoder for any worker count.
	var plans []mbPlan
	if t != IFrame {
		plans = getPlans(mbw * mbh)
		defer putPlans(plans)
		par.ForEachChunk(mbh, func(lo, hi int) {
			for my := lo; my < hi; my++ {
				for mx := 0; mx < mbw; mx++ {
					e.planMB(f, fwd, bwd, t, mx*MBSize, my*MBSize, &plans[my*mbw+mx])
				}
			}
		})
	}

	// Phase 2 (serial): mode decisions that involve the reconstruction
	// (intra cost, intra prediction), entropy coding into the single
	// bitstream, and the reconstruction writes, in raster order.
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			var plan *mbPlan
			if plans != nil {
				plan = &plans[my*mbw+mx]
			}
			e.encodeMB(&w, f, recon, fwd, bwd, t, mx*MBSize, my*MBSize, plan, &stats)
		}
	}

	if deblock == 1 {
		deblockFrame(recon, e.cfg.Quality)
	}
	data := w.Bytes()
	stats.Bytes = units.ByteSize(len(data))
	e.lastRecon = recon
	if t != BFrame {
		e.pushRef(recon)
	}
	e.count++
	return Packet{Type: t, Seq: f.Seq, Data: data}, stats, nil
}

func (e *Encoder) pushRef(f *Frame) {
	e.refs = append(e.refs, f)
	if len(e.refs) > 2 {
		e.refs = e.refs[len(e.refs)-2:]
	}
}

// planMB computes the reference-only decision inputs for one macroblock:
// motion search against the backward reference, the zero-vector skip
// test, the bidirectional SAD (B-frames), and — when the macroblock
// cannot be skip — the transformed, quantized, reconstructed residual of
// the inter hypothesis. Everything here reads only src, fwd, and bwd,
// which are immutable during the frame, so planMB is safe to run
// concurrently across macroblocks.
func (e *Encoder) planMB(src, fwd, bwd *Frame, t FrameType, px, py int, pl *mbPlan) {
	pl.mv, pl.sad = searchMotion(src, bwd, px, py, e.cfg.SearchWindow)
	pl.zeroSAD = sadMB(src, bwd, px, py, MotionVector{}, 1<<30)
	pl.biSAD = 1 << 30
	if t == BFrame {
		pl.biSAD = sadBi(src, fwd, bwd, px, py, pl.mv, pl.mv, pl.sad)
	}
	pl.hasRes = false
	if pl.zeroSAD > e.cfg.SkipThreshold {
		// The macroblock will be inter or intra; precompute the inter
		// residual so the serial pass only has to emit it.
		mv := pl.mv
		e.transformMB(src, px, py, func(p, x, y int) int32 {
			return int32(bwd.At(p, x+mv.DX, y+mv.DY))
		}, &pl.interRes)
		pl.hasRes = true
	}
}

// encodeMB chooses a mode for one macroblock, writes its syntax, and
// reconstructs it into recon. plan carries the phase-1 precomputation for
// P/B frames (nil for I-frames).
func (e *Encoder) encodeMB(w *BitWriter, src, recon, fwd, bwd *Frame, t FrameType, px, py int, plan *mbPlan, stats *EncodeStats) {
	mode := mbIntra
	var mv, mvB MotionVector

	if t != IFrame {
		bestMV, bestSAD := plan.mv, plan.sad
		zeroSAD := plan.zeroSAD
		intraCost := intraSAD(src, recon, px, py)

		switch {
		case zeroSAD <= e.cfg.SkipThreshold:
			mode, mv = mbSkip, MotionVector{}
		case bestSAD <= intraCost:
			mode, mv = mbInter, bestMV
		default:
			mode = mbIntra
		}
		if t == BFrame && mode == mbInter {
			// Try bidirectional prediction with the same vector against
			// both references; keep it if it beats unidirectional.
			if bi := plan.biSAD; bi < bestSAD {
				mvB = bestMV
				w.WriteUE(3) // bi mode
				w.WriteSE(int64(mv.DX))
				w.WriteSE(int64(mv.DY))
				w.WriteSE(int64(mvB.DX))
				w.WriteSE(int64(mvB.DY))
				e.codeResidual(w, src, recon, px, py, func(p, x, y int) int32 {
					f := int32(fwd.At(p, x+mv.DX, y+mv.DY))
					b := int32(bwd.At(p, x+mvB.DX, y+mvB.DY))
					return (f + b + 1) / 2
				})
				stats.InterMBs++
				return
			}
		}
	}

	switch mode {
	case mbSkip:
		w.WriteUE(uint64(mbSkip))
		// Reconstruction copies the co-located reference block.
		copyMB(recon, bwd, px, py, MotionVector{})
		stats.Skip++
	case mbInter:
		w.WriteUE(uint64(mbInter))
		w.WriteSE(int64(mv.DX))
		w.WriteSE(int64(mv.DY))
		// The residual was transformed in phase 1 (mode can only be inter
		// when the skip test failed, so hasRes is set); emit and blit it.
		emitResidual(w, &plan.interRes)
		blitRec(recon, px, py, &plan.interRes)
		stats.InterMBs++
	default:
		w.WriteUE(uint64(mbIntra))
		imode := chooseIntraMode(src, recon, px, py)
		w.WriteUE(uint64(imode))
		e.codeResidual(w, src, recon, px, py, intraPred(recon, px, py, imode))
		stats.IntraMBs++
	}
}

// Intra prediction modes: DC (mean of decoded neighbors), horizontal
// (extend the left column), vertical (extend the top row) — the classic
// spatial predictors of H.264-class intra coding.
const (
	intraModeDC = iota
	intraModeH
	intraModeV
	numIntraModes
)

// intraPred returns the prediction function for an intra mode. All modes
// reference only pixels decoded before this macroblock (the column left
// of px and the row above py), so encoder and decoder agree exactly.
func intraPred(recon *Frame, px, py, mode int) func(p, x, y int) int32 {
	switch mode {
	case intraModeH:
		return func(p, _, y int) int32 { return int32(recon.At(p, px-1, y)) }
	case intraModeV:
		return func(p, x, _ int) int32 { return int32(recon.At(p, x, py-1)) }
	default:
		dc := intraDC(recon, px, py)
		return func(p, _, _ int) int32 { return dc[p] }
	}
}

// chooseIntraMode picks the predictor minimizing SAD on plane 0. H and V
// are only considered when the respective neighbors exist.
func chooseIntraMode(src, recon *Frame, px, py int) int {
	best, bestCost := intraModeDC, predSAD(src, px, py, intraPred(recon, px, py, intraModeDC))
	if px > 0 {
		if c := predSAD(src, px, py, intraPred(recon, px, py, intraModeH)); c < bestCost {
			best, bestCost = intraModeH, c
		}
	}
	if py > 0 {
		if c := predSAD(src, px, py, intraPred(recon, px, py, intraModeV)); c < bestCost {
			best = intraModeV
		}
	}
	return best
}

// predSAD is the plane-0 SAD of a macroblock against a predictor.
func predSAD(src *Frame, px, py int, pred func(p, x, y int) int32) int {
	sum := 0
	for y := 0; y < MBSize; y++ {
		for x := 0; x < MBSize; x++ {
			d := int(src.At(0, px+x, py+y)) - int(pred(0, px+x, py+y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// intraDC computes the per-plane DC predictor from decoded neighbors (the
// row above and column left of the macroblock), defaulting to 128.
func intraDC(recon *Frame, px, py int) [3]int32 {
	var dc [3]int32
	for p := 0; p < 3; p++ {
		sum, n := 0, 0
		if py > 0 {
			for x := 0; x < MBSize && px+x < recon.W; x++ {
				sum += int(recon.At(p, px+x, py-1))
				n++
			}
		}
		if px > 0 {
			for y := 0; y < MBSize && py+y < recon.H; y++ {
				sum += int(recon.At(p, px-1, py+y))
				n++
			}
		}
		if n == 0 {
			dc[p] = 128
		} else {
			dc[p] = int32((sum + n/2) / n)
		}
	}
	return dc
}

// intraSAD estimates the cost of intra coding as SAD against the DC
// predictor on plane 0.
func intraSAD(src, recon *Frame, px, py int) int {
	dc := intraDC(recon, px, py)
	sum := 0
	for y := 0; y < MBSize; y++ {
		for x := 0; x < MBSize; x++ {
			d := int(src.At(0, px+x, py+y)) - int(dc[0])
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// copyMB copies a displaced 16×16 block from ref into dst for all planes.
func copyMB(dst, ref *Frame, px, py int, mv MotionVector) {
	sx, sy := px+mv.DX, py+mv.DY
	if px >= 0 && py >= 0 && px+MBSize <= dst.W && py+MBSize <= dst.H &&
		sx >= 0 && sy >= 0 && sx+MBSize <= ref.W && sy+MBSize <= ref.H && dst.W == ref.W {
		// Interior fast path (every skip macroblock away from the frame
		// edge): straight row copies, no per-pixel clamping.
		for p := 0; p < 3; p++ {
			for y := 0; y < MBSize; y++ {
				copy(dst.Planes[p][(py+y)*dst.W+px:(py+y)*dst.W+px+MBSize],
					ref.Planes[p][(sy+y)*ref.W+sx:(sy+y)*ref.W+sx+MBSize])
			}
		}
		return
	}
	for p := 0; p < 3; p++ {
		for y := 0; y < MBSize; y++ {
			for x := 0; x < MBSize; x++ {
				dst.Set(p, px+x, py+y, ref.At(p, px+x+mv.DX, py+y+mv.DY))
			}
		}
	}
}

// codeResidual transforms, quantizes, entropy-codes, and reconstructs the
// 2×2 grid of 8×8 blocks per plane of one macroblock. pred supplies the
// prediction sample for (plane, x, y) in frame coordinates.
func (e *Encoder) codeResidual(w *BitWriter, src, recon *Frame, px, py int, pred func(p, x, y int) int32) {
	var mr mbResidual
	e.transformMB(src, px, py, pred, &mr)
	emitResidual(w, &mr)
	blitRec(recon, px, py, &mr)
}

// transformMB computes the full transformed residual of one macroblock
// for the given predictor: quantized coefficients in coding order and the
// reconstruction exactly as the decoder will produce it. The predictor
// must not read the in-progress reconstruction inside the macroblock
// (every mode's predictor only references pixels left of px or above py,
// or a reference frame), so deferring the reconstruction writes until
// blitRec does not change any sample.
func (e *Encoder) transformMB(src *Frame, px, py int, pred func(p, x, y int) int32, out *mbResidual) {
	var res, coef [blockSize * blockSize]int32
	bi := 0
	for p := 0; p < 3; p++ {
		for by := 0; by < MBSize; by += blockSize {
			for bx := 0; bx < MBSize; bx += blockSize {
				// Gather residual.
				for y := 0; y < blockSize; y++ {
					for x := 0; x < blockSize; x++ {
						fx, fy := px+bx+x, py+by+y
						res[y*blockSize+x] = int32(src.At(p, fx, fy)) - pred(p, fx, fy)
					}
				}
				fdct8(&res, &coef)
				quantize(&coef, &e.table)
				out.coef[bi] = coef
				// Reconstruct exactly as the decoder will.
				dequantize(&coef, &e.table)
				idct8(&coef, &res)
				for y := 0; y < blockSize; y++ {
					for x := 0; x < blockSize; x++ {
						fx, fy := px+bx+x, py+by+y
						v := res[y*blockSize+x] + pred(p, fx, fy) - 128
						out.rec[p][(by+y)*MBSize+bx+x] = clampByte(v)
					}
				}
				bi++
			}
		}
	}
}

// emitResidual entropy-codes a transformed macroblock's 12 blocks in
// coding order.
func emitResidual(w *BitWriter, mr *mbResidual) {
	for bi := range mr.coef {
		writeCoeffs(w, &mr.coef[bi])
	}
}

// blitRec copies a macroblock reconstruction into the frame, dropping the
// out-of-bounds tail of edge macroblocks (the same rule as Frame.Set).
func blitRec(recon *Frame, px, py int, mr *mbResidual) {
	w := MBSize
	if px+w > recon.W {
		w = recon.W - px
	}
	h := MBSize
	if py+h > recon.H {
		h = recon.H - py
	}
	if w <= 0 || h <= 0 {
		return
	}
	for p := 0; p < 3; p++ {
		for y := 0; y < h; y++ {
			copy(recon.Planes[p][(py+y)*recon.W+px:(py+y)*recon.W+px+w], mr.rec[p][y*MBSize:y*MBSize+w])
		}
	}
}

// writeCoeffs entropy-codes one quantized 8×8 block: ue(nonzero count)
// then (run, level) pairs in zigzag order.
func writeCoeffs(w *BitWriter, coef *[blockSize * blockSize]int32) {
	nnz := 0
	for _, idx := range zigzag {
		if coef[idx] != 0 {
			nnz++
		}
	}
	w.WriteUE(uint64(nnz))
	run := 0
	for _, idx := range zigzag {
		if coef[idx] == 0 {
			run++
			continue
		}
		w.WriteUE(uint64(run))
		w.WriteSE(int64(coef[idx]))
		run = 0
	}
}
