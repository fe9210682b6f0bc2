package pipeline

import (
	"fmt"
	"time"

	"burstlink/internal/codec"
	"burstlink/internal/display"
	"burstlink/internal/dram"
	"burstlink/internal/edp"
	"burstlink/internal/interconnect"
	"burstlink/internal/memo"
	"burstlink/internal/sim"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// FunctionalConfig drives the event-driven functional simulation: real
// codec, real DMA/P2P transfers, real panel protocol, virtual time. It
// runs at small resolutions (the codec is software) and exists to validate
// the *protocol* — frame integrity, ordering, tear-freedom, PSR
// sequencing — that the analytic schedulers assume.
type FunctionalConfig struct {
	Width, Height int
	Frames        int
	FPS           units.FPS
	Refresh       units.RefreshRate
	Quality       int // encoder quality (default 50)
	// BPeriod enables B-frames: packets arrive in decode order and the
	// pipeline must restore display order before the panel (0 = IPPP).
	BPeriod int
}

// Validate checks the configuration.
func (c FunctionalConfig) Validate() error {
	if c.Width <= 0 || c.Height <= 0 || c.Frames <= 0 || c.FPS <= 0 || c.Refresh <= 0 {
		return fmt.Errorf("pipeline: incomplete functional config %+v", c)
	}
	if int(c.Refresh)%int(c.FPS) != 0 {
		return fmt.Errorf("pipeline: refresh %d not a multiple of FPS %d", c.Refresh, c.FPS)
	}
	return nil
}

// FunctionalResult reports what the functional simulation observed.
type FunctionalResult struct {
	Timeline trace.Timeline
	Panel    display.Stats
	// FramesVerified counts displayed frames whose pixel checksum
	// matched the encoder-side reconstruction.
	FramesVerified int
	// ChecksumErrors counts mismatches (must be 0).
	ChecksumErrors int
	// DRAMRead/DRAMWrite are the memory device's cumulative traffic.
	DRAMRead, DRAMWrite units.ByteSize
	// P2PBytes is traffic moved peer-to-peer (bypass path).
	P2PBytes units.ByteSize
	// VDActiveFraction is the decoder's duty cycle over the run (from
	// the per-component residency tracker).
	VDActiveFraction float64
}

// SyntheticVideo produces Frames test frames with moving content and
// encodes them, returning the packets and the encoder's per-frame
// reconstruction checksums (the ground truth the panel must display).
func SyntheticVideo(cfg FunctionalConfig) ([]codec.Packet, []uint32, error) {
	q := cfg.Quality
	if q == 0 {
		q = 50
	}
	ecfg := codec.EncoderConfig{Quality: q, GOP: 8, SearchWindow: 4, SkipThreshold: 512}
	genc, err := codec.NewGOPEncoder(cfg.Width, cfg.Height, ecfg, cfg.BPeriod)
	if err != nil {
		return nil, nil, err
	}
	// Packets come out in decode order; checksums are indexed by display
	// sequence number, computed from the encoder reconstruction.
	var packets []codec.Packet
	sums := make([]uint32, cfg.Frames)
	record := func(pkts []codec.Packet) {
		for _, pkt := range pkts {
			packets = append(packets, pkt)
		}
	}
	// With B-frames the encoder reconstructs in decode order, so decode
	// everything with a reference decoder to recover per-seq checksums.
	for i := 0; i < cfg.Frames; i++ {
		f := syntheticFrame(cfg.Width, cfg.Height, i)
		f.Seq = i
		pkts, err := genc.Push(f)
		if err != nil {
			return nil, nil, err
		}
		record(pkts)
	}
	tail, err := genc.Flush()
	if err != nil {
		return nil, nil, err
	}
	record(tail)
	ref := codec.NewDecoder()
	// The interleaved pixels only live long enough to be checksummed, so
	// one pooled buffer serves every frame.
	buf := display.GetBuf(3 * cfg.Width * cfg.Height)
	defer func() { display.PutBuf(buf) }()
	for _, pkt := range packets {
		fr, err := ref.Decode(pkt)
		if err != nil {
			return nil, nil, err
		}
		if fr.Seq >= 0 && fr.Seq < cfg.Frames {
			buf = fr.InterleavedInto(buf)
			sums[fr.Seq] = display.Frame{Seq: fr.Seq, Data: buf}.Checksum()
		}
	}
	return packets, sums, nil
}

// syntheticFrame draws a gradient with a moving block.
func syntheticFrame(w, h, seq int) *codec.Frame {
	f := codec.NewFrame(w, h)
	f.Seq = seq
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			f.Planes[0][i] = byte((x*7 + seq*3) & 0xFF)
			f.Planes[1][i] = byte((y * 5) & 0xFF)
			f.Planes[2][i] = byte((x + y) & 0xFF)
		}
	}
	bx := (seq * 3) % (w - 8)
	for y := 4; y < 12 && y < h; y++ {
		for x := bx; x < bx+8; x++ {
			f.Planes[0][y*w+x] = 240
		}
	}
	return f
}

// RunFunctionalMemo executes the conventional pipeline (Fig 2) end to end
// on the discrete-event engine: decode → DMA into the DRAM frame buffer →
// DC chunk fetches → pixel-paced eDP transfer → panel RFB → scan-out, with
// PSR for the repeat windows of low-FPS video. The synthetic encoded
// stream is served through the delta-simulation segment cache c (nil
// encodes directly): the event-driven protocol run always executes (it is
// the thing under test), but the software encode — the dominant setup
// cost — is shared across runs that exercise the same content.
func RunFunctionalMemo(p Platform, c *memo.Cache, cfg FunctionalConfig) (FunctionalResult, error) {
	if err := cfg.Validate(); err != nil {
		return FunctionalResult{}, err
	}
	if cfg.BPeriod != 0 {
		return FunctionalResult{}, fmt.Errorf("pipeline: B-frame reordering is exercised by the BurstLink functional simulator (core.RunFunctionalMemo)")
	}
	packets, sums, err := SyntheticVideoMemo(c, cfg)
	if err != nil {
		return FunctionalResult{}, err
	}

	eng := &sim.Engine{}
	pmu := soc.NewPMU(eng, soc.StockFirmware{})
	rec := trace.NewRecorder(eng)
	pmu.Listen(rec.OnTransition)
	tracker := soc.NewComponentTracker(eng)
	pmu.ListenComponents(tracker.OnChange)
	base := soc.AllPowerGated()
	base[soc.Panel] = soc.CompActive
	pmu.SetComponents(base)

	mem := dram.NewDevice(p.DRAM)
	fabric := interconnect.DefaultFabric()
	vdDMA := interconnect.NewDMAEngine("vd", fabric, mem)
	dcDMA := interconnect.NewDMAEngine("dc", fabric, mem)

	res := units.Resolution{Width: cfg.Width, Height: cfg.Height}
	frameBytes := res.FrameSize(24)
	if _, err := dram.NewDoubleBuffer(mem, "video", frameBytes); err != nil {
		return FunctionalResult{}, err
	}

	panel := display.NewPanel(display.Config{Resolution: res, BPP: 24, Refresh: cfg.Refresh})
	pixelRate := cfg.Refresh.PixelRate(res, 24)
	link := edp.NewLink(p.Link, pixelRate)

	dec := codec.NewDecoder()
	window := cfg.Refresh.Window()
	wpf := int(cfg.Refresh) / int(cfg.FPS)

	verified, errors := 0, 0
	var p2p units.ByteSize

	advance := func(d time.Duration) { eng.RunUntil(eng.Now() + d) }

	for i, pkt := range packets {
		// C0: orchestration + decode; VD DMAs the decoded frame into the
		// DRAM frame buffer.
		pmu.SetComponents(soc.ComponentSet{
			soc.Cores: soc.CompActive, soc.VideoDec: soc.CompActive,
			soc.MemCtl: soc.CompActive, soc.DRAMDev: soc.CompActive,
			soc.DispCtl: soc.CompActive, soc.EDPHost: soc.CompActive,
		})
		frame, err := dec.Decode(pkt)
		if err != nil {
			return FunctionalResult{}, fmt.Errorf("frame %d: %w", i, err)
		}
		vdDMA.ReadMem(units.ByteSize(pkt.Size())) // encoded stream read
		vdDMA.WriteMem(frameBytes)                // decoded frame write
		rec.NoteDRAM(units.ByteSize(pkt.Size()), frameBytes)
		rec.NoteLabel("decode")
		advance(p.OrchTime + scaledDecodeTime(p, res, cfg.FPS))

		// C2/C8 alternation: DC fetches chunks and drains them to the
		// panel at pixel rate.
		nChunks := int((frameBytes + p.DCBufSize - 1) / p.DCBufSize)
		if nChunks < 1 {
			nChunks = 1
		}
		chunk := frameBytes / units.ByteSize(nChunks)
		fetchPer := p.FetchTime(res, 24, cfg.FPS) / time.Duration(nChunks)
		// The send occupies the remainder of the window after the C0
		// phase (the analytic scheduler's budget); cap the per-chunk
		// drain so the frame fits its window.
		sendBudget := window - (p.OrchTime + scaledDecodeTime(p, res, cfg.FPS))
		drainPer := sendBudget / time.Duration(nChunks)
		if pp := pixelRate.TimeFor(chunk); pp < drainPer {
			drainPer = pp
		}
		for c := 0; c < nChunks; c++ {
			pmu.SetComponents(soc.ComponentSet{
				soc.Cores: soc.CompPowerGated, soc.VideoDec: soc.CompPowerGated,
				soc.MemCtl: soc.CompActive, soc.DRAMDev: soc.CompActive,
			})
			dcDMA.ReadMem(chunk)
			rec.NoteDRAM(chunk, 0)
			rec.NoteLabel("dc fetch")
			advance(fetchPer)
			pmu.SetComponents(soc.ComponentSet{
				soc.MemCtl: soc.CompPowerGated, soc.DRAMDev: soc.CompPowerGated,
				soc.DispCtl: soc.CompActive, soc.EDPHost: soc.CompActive,
				soc.VideoDec: soc.CompPowerGated, soc.Panel: soc.CompActive,
			})
			link.Transfer(chunk)
			d := drainPer - fetchPer
			if d < 0 {
				d = 0
			}
			advance(d)
		}
		// Frame fully delivered: panel stores and scans it.
		if err := panel.ReceiveFrame(display.Frame{Seq: frame.Seq, Data: frame.Interleaved()}); err != nil {
			return FunctionalResult{}, err
		}
		shown, err := panel.Refresh()
		if err != nil {
			return FunctionalResult{}, err
		}
		if shown.Checksum() == sums[i] {
			verified++
		} else {
			errors++
		}

		// PSR windows: panel self-refreshes from the RFB.
		if wpf > 1 {
			link.SendSideband(edp.SidebandMsg{Kind: edp.PSREnter})
			for _, m := range link.DrainSideband() {
				if err := panel.HandleSideband(m); err != nil {
					return FunctionalResult{}, err
				}
			}
			pmu.SetComponents(soc.ComponentSet{
				soc.DispCtl: soc.CompIdle, soc.EDPHost: soc.CompIdle,
			})
			for w := 1; w < wpf; w++ {
				if _, err := panel.Refresh(); err != nil {
					return FunctionalResult{}, err
				}
				advance(window)
			}
			link.SendSideband(edp.SidebandMsg{Kind: edp.PSRExit})
			for _, m := range link.DrainSideband() {
				if err := panel.HandleSideband(m); err != nil {
					return FunctionalResult{}, err
				}
			}
		}
		// Align to the next frame period.
		eng.RunUntil(time.Duration(i+1) * cfg.FPS.FrameInterval())
	}

	read, write := mem.Traffic()
	tracker.Snapshot()
	return FunctionalResult{
		Timeline:         rec.Finish(),
		Panel:            panel.Stats(),
		FramesVerified:   verified,
		ChecksumErrors:   errors,
		DRAMRead:         read,
		DRAMWrite:        write,
		P2PBytes:         p2p,
		VDActiveFraction: tracker.ActiveFraction(soc.VideoDec),
	}, nil
}

// scaledDecodeTime shrinks the modeled decode time for the tiny functional
// resolutions so a frame period still holds the whole pipeline.
func scaledDecodeTime(p Platform, res units.Resolution, fps units.FPS) time.Duration {
	d := p.DecodeTime(res, fps)
	if d < 50*time.Microsecond {
		d = 50 * time.Microsecond
	}
	return d
}
