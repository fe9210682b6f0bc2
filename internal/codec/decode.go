package codec

import (
	"fmt"

	"burstlink/internal/par"
)

// RowSink receives reconstructed macroblock rows as the decoder finishes
// them: rowIdx is the macroblock-row index (each MBSize pixel rows) and
// data is the interleaved 3-byte-per-pixel content of those rows. This is
// the streaming hook the destination selector (§4.4) uses: in conventional
// mode the rows are DMAed to the DRAM frame buffer; under Frame Buffer
// Bypass they go peer-to-peer to the display controller buffer.
//
// data is only valid for the duration of the callback (the buffer is
// pooled and reused for the next row); sinks that keep the pixels must
// copy them out, as a DMA engine would.
type RowSink func(rowIdx int, data []byte)

// Decoder reconstructs frames from packets produced by Encoder.
type Decoder struct {
	w, h  int
	table [blockSize * blockSize]int32
	haveT bool
	refs  []*Frame

	sink RowSink

	frames int
}

// NewDecoder builds a decoder; dimensions and quality are learned from the
// first packet.
func NewDecoder() *Decoder { return &Decoder{} }

// SetRowSink installs the macroblock-row streaming callback.
func (d *Decoder) SetRowSink(s RowSink) { d.sink = s }

// Decode reconstructs one packet into a frame. The decoder keeps the last
// two reconstructions as references for P- and B-frames.
func (d *Decoder) Decode(p Packet) (*Frame, error) {
	r := NewBitReader(p.Data)
	tRaw, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	t := FrameType(tRaw)
	if t < IFrame || t > BFrame {
		return nil, fmt.Errorf("codec: bad frame type %d", tRaw)
	}
	seq, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	wv, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	hv, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	quality, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	deblock, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	if deblock > 1 {
		return nil, fmt.Errorf("codec: bad deblock flag %d", deblock)
	}
	if wv == 0 || hv == 0 || wv > 1<<14 || hv > 1<<14 || wv*hv > 64<<20 {
		return nil, fmt.Errorf("codec: bad dimensions %dx%d", wv, hv)
	}
	if d.w == 0 {
		d.w, d.h = int(wv), int(hv)
	} else if d.w != int(wv) || d.h != int(hv) {
		return nil, fmt.Errorf("codec: dimension change %dx%d -> %dx%d", d.w, d.h, wv, hv)
	}
	// Quality is per-packet: rate-controlled encoders vary it frame to
	// frame.
	d.table = quantTable(int(quality))
	d.haveT = true

	switch t {
	case PFrame:
		if len(d.refs) == 0 {
			return nil, fmt.Errorf("codec: P-frame with no reference")
		}
	case BFrame:
		if len(d.refs) < 2 {
			return nil, fmt.Errorf("codec: B-frame needs two references")
		}
	}

	recon := NewFrame(d.w, d.h)
	recon.Seq = int(seq)
	var fwd, bwd *Frame
	if len(d.refs) >= 1 {
		bwd = d.refs[len(d.refs)-1]
	}
	if len(d.refs) >= 2 {
		fwd = d.refs[len(d.refs)-2]
	} else {
		fwd = bwd
	}

	mbw, mbh := mbCount(d.w, d.h)
	plans := getDecPlans(mbw * mbh)
	defer putDecPlans(plans)

	// Phase 1 (serial): parse every macroblock's syntax out of the
	// bitstream. Entropy decoding is inherently sequential — each
	// macroblock's bits start where the previous one's ended.
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			if err := d.parseMB(r, bwd, &plans[my*mbw+mx]); err != nil {
				return nil, fmt.Errorf("codec: MB (%d,%d): %w", mx, my, err)
			}
		}
	}

	// Phase 2 (parallel): reconstruct every macroblock whose prediction
	// reads only the immutable reference frames (skip, inter, bi), and
	// inverse-transform the residual of intra macroblocks in place. Each
	// macroblock writes its own pixel region, so rows fan out over the
	// worker pool without races, and the output is byte-identical to the
	// serial decoder.
	par.ForEachChunk(mbh, func(lo, hi int) {
		for my := lo; my < hi; my++ {
			for mx := 0; mx < mbw; mx++ {
				d.reconMB(recon, fwd, bwd, mx*MBSize, my*MBSize, &plans[my*mbw+mx])
			}
		}
	})

	// Phase 3 (serial): intra macroblocks in raster order. Intra
	// prediction reads reconstructed neighbors (the column left of and
	// the row above the macroblock), which at this point hold exactly the
	// samples the serial decoder would have produced: inter neighbors
	// were finished in phase 2, and earlier intra neighbors are finished
	// by the raster order of this pass.
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			pl := &plans[my*mbw+mx]
			if pl.mode == uint64(mbIntra) {
				d.reconIntraMB(recon, mx*MBSize, my*MBSize, pl)
			}
		}
		// Without the in-loop filter, rows stream out as soon as they
		// reconstruct; with it, output trails the filter (below), as in
		// hardware decoders where the deblock stage adds a row of
		// latency.
		if d.sink != nil && deblock == 0 {
			d.emitRow(recon, my)
		}
	}

	if deblock == 1 {
		deblockFrame(recon, int(quality))
		if d.sink != nil {
			for my := 0; my < mbh; my++ {
				d.emitRow(recon, my)
			}
		}
	}
	// B-frames are never references (mirrors the encoder).
	if t != BFrame {
		d.refs = append(d.refs, recon)
		if len(d.refs) > 2 {
			d.refs = d.refs[len(d.refs)-2:]
		}
	}
	d.frames++
	return recon, nil
}

// emitRow streams one reconstructed macroblock row to the sink. The
// buffer is pooled; RowSink documents that it is only valid during the
// callback.
func (d *Decoder) emitRow(f *Frame, mbRow int) {
	y0 := mbRow * MBSize
	y1 := y0 + MBSize
	if y1 > f.H {
		y1 = f.H
	}
	out := getRowBuf((y1 - y0) * f.W * 3)
	i := 0
	for y := y0; y < y1; y++ {
		for x := 0; x < f.W; x++ {
			out[i] = f.Planes[0][y*f.W+x]
			out[i+1] = f.Planes[1][y*f.W+x]
			out[i+2] = f.Planes[2][y*f.W+x]
			i += 3
		}
	}
	d.sink(mbRow, out)
	putRowBuf(out)
}

// parseMB extracts one macroblock's syntax — mode, motion vectors, and
// quantized coefficients — into pl without touching the reconstruction.
func (d *Decoder) parseMB(r *BitReader, bwd *Frame, pl *mbDec) error {
	modeRaw, err := r.ReadUE()
	if err != nil {
		return err
	}
	// Inter modes need a reference; a corrupt stream may smuggle them
	// into an I-frame.
	if modeRaw != uint64(mbIntra) && bwd == nil {
		return fmt.Errorf("inter MB mode %d without reference frame", modeRaw)
	}
	pl.mode = modeRaw
	pl.hasRes = false
	switch modeRaw {
	case uint64(mbSkip):
		return nil
	case uint64(mbInter):
		dx, err := r.ReadSE()
		if err != nil {
			return err
		}
		dy, err := r.ReadSE()
		if err != nil {
			return err
		}
		pl.mvB = MotionVector{DX: int(dx), DY: int(dy)}
	case 3: // bidirectional
		var mvs [4]int64
		for i := range mvs {
			if mvs[i], err = r.ReadSE(); err != nil {
				return err
			}
		}
		pl.mvF = MotionVector{DX: int(mvs[0]), DY: int(mvs[1])}
		pl.mvB = MotionVector{DX: int(mvs[2]), DY: int(mvs[3])}
	case uint64(mbIntra):
		imode, err := r.ReadUE()
		if err != nil {
			return err
		}
		if imode >= numIntraModes {
			return fmt.Errorf("bad intra mode %d", imode)
		}
		pl.imode = int(imode)
	default:
		return fmt.Errorf("bad MB mode %d", modeRaw)
	}
	for bi := 0; bi < mbBlocks; bi++ {
		if err := readCoeffs(r, &pl.res[bi]); err != nil {
			return err
		}
	}
	pl.hasRes = true
	return nil
}

// reconMB reconstructs one parsed macroblock in the parallel phase. Skip,
// inter, and bi macroblocks predict only from the reference frames, so
// they reconstruct completely; intra macroblocks get their residual
// inverse-transformed in place (res becomes spatial samples) and finish
// in the serial phase 3.
func (d *Decoder) reconMB(recon, fwd, bwd *Frame, px, py int, pl *mbDec) {
	switch pl.mode {
	case uint64(mbSkip):
		copyMB(recon, bwd, px, py, MotionVector{})
	case uint64(mbInter):
		mv := pl.mvB
		d.addResidual(recon, px, py, pl, func(p, x, y int) int32 {
			return int32(bwd.At(p, x+mv.DX, y+mv.DY))
		})
	case 3:
		mvF, mvB := pl.mvF, pl.mvB
		d.addResidual(recon, px, py, pl, func(p, x, y int) int32 {
			f := int32(fwd.At(p, x+mvF.DX, y+mvF.DY))
			b := int32(bwd.At(p, x+mvB.DX, y+mvB.DY))
			return (f + b + 1) / 2
		})
	case uint64(mbIntra):
		var res [blockSize * blockSize]int32
		for bi := 0; bi < mbBlocks; bi++ {
			dequantize(&pl.res[bi], &d.table)
			idct8(&pl.res[bi], &res)
			pl.res[bi] = res
		}
	}
}

// reconIntraMB finishes an intra macroblock in phase 3: its residual was
// already inverse-transformed by reconMB, so this just adds the spatial
// prediction from the (now final) neighboring samples.
func (d *Decoder) reconIntraMB(recon *Frame, px, py int, pl *mbDec) {
	pred := intraPred(recon, px, py, pl.imode)
	bi := 0
	for p := 0; p < 3; p++ {
		for by := 0; by < MBSize; by += blockSize {
			for bx := 0; bx < MBSize; bx += blockSize {
				res := &pl.res[bi]
				for y := 0; y < blockSize; y++ {
					for x := 0; x < blockSize; x++ {
						fx, fy := px+bx+x, py+by+y
						v := res[y*blockSize+x] + pred(p, fx, fy) - 128
						recon.Set(p, fx, fy, clampByte(v))
					}
				}
				bi++
			}
		}
	}
}

// addResidual inverse-transforms a parsed macroblock's residual (in
// place: the coefficients become spatial samples first) and adds the
// prediction, writing the reconstruction.
func (d *Decoder) addResidual(recon *Frame, px, py int, pl *mbDec, pred func(p, x, y int) int32) {
	var res [blockSize * blockSize]int32
	bi := 0
	for p := 0; p < 3; p++ {
		for by := 0; by < MBSize; by += blockSize {
			for bx := 0; bx < MBSize; bx += blockSize {
				dequantize(&pl.res[bi], &d.table)
				idct8(&pl.res[bi], &res)
				for y := 0; y < blockSize; y++ {
					for x := 0; x < blockSize; x++ {
						fx, fy := px+bx+x, py+by+y
						v := res[y*blockSize+x] + pred(p, fx, fy) - 128
						recon.Set(p, fx, fy, clampByte(v))
					}
				}
				bi++
			}
		}
	}
}

// readCoeffs parses one entropy-coded 8×8 block into coef.
func readCoeffs(r *BitReader, coef *[blockSize * blockSize]int32) error {
	for i := range coef {
		coef[i] = 0
	}
	nnz, err := r.ReadUE()
	if err != nil {
		return err
	}
	if nnz > blockSize*blockSize {
		return ErrBitstream
	}
	pos := 0
	for i := uint64(0); i < nnz; i++ {
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		level, err := r.ReadSE()
		if err != nil {
			return err
		}
		pos += int(run)
		if pos >= blockSize*blockSize || level == 0 {
			return ErrBitstream
		}
		coef[zigzag[pos]] = int32(level)
		pos++
	}
	return nil
}
