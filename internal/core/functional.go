package core

import (
	"fmt"
	"time"

	"burstlink/internal/codec"
	"burstlink/internal/display"
	"burstlink/internal/dram"
	"burstlink/internal/edp"
	"burstlink/internal/interconnect"
	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/sim"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// dcBuffer is the display controller's internal double buffer acting as an
// interconnect sink for the VD's P2P writes (Fig 5 ②).
type dcBuffer struct {
	data  []byte
	limit units.ByteSize
	fills int
}

// Name implements interconnect.Sink.
func (b *dcBuffer) Name() string { return "dc-buffer" }

// Accept implements interconnect.Sink; consumption is fabric-speed.
func (b *dcBuffer) Accept(n units.ByteSize) time.Duration {
	b.fills++
	return 0
}

// RunFunctionalMemo executes the full BurstLink pipeline (Fig 5) end to
// end on the discrete-event engine: decode streams macroblock rows
// peer-to-peer into the DC buffer (Frame Buffer Bypass), the DC bursts the
// frame over the eDP at maximum bandwidth into the panel's DRFB (Frame
// Bursting), a FrameReady sideband flips the DRFB bank, and the BurstLink
// firmware drops the package to C9 for the rest of the period. The DRAM
// frame buffer is never touched. The synthetic encoded stream is served
// through the delta-simulation segment cache c (nil encodes directly), so
// the conventional and BurstLink functional runs over the same content
// share one encode.
func RunFunctionalMemo(p pipeline.Platform, c *memo.Cache, cfg pipeline.FunctionalConfig) (pipeline.FunctionalResult, error) {
	if err := cfg.Validate(); err != nil {
		return pipeline.FunctionalResult{}, err
	}
	packets, sums, err := pipeline.SyntheticVideoMemo(c, cfg)
	if err != nil {
		return pipeline.FunctionalResult{}, err
	}

	eng := &sim.Engine{}
	res := units.Resolution{Width: cfg.Width, Height: cfg.Height}
	frameBytes := res.FrameSize(24)

	panel := display.NewPanel(display.Config{Resolution: res, BPP: 24, Refresh: cfg.Refresh, DoubleRFB: true})
	frameInDRFB := false
	fw := &Firmware{
		FrameInDRFB: func() bool { return frameInDRFB },
		BurstActive: true,
	}
	pmu := soc.NewPMU(eng, fw)
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
	vdP2P := interconnect.NewP2PEngine("vd", fabric)
	dcBuf := &dcBuffer{limit: p.DCBufSize}

	// Destination selector: single full-screen video → DC path.
	sel := NewDestinationSelector(interconnect.NewCSRFile("vd"), interconnect.NewCSRFile("dc"))
	sel.SetVideoApps(1)
	sel.SetPlanes(1, true)
	if sel.Destination() != DestDC {
		return pipeline.FunctionalResult{}, fmt.Errorf("core: selector refused bypass")
	}

	link := edp.NewLink(p.Link, cfg.Refresh.PixelRate(res, 24))
	if fw.GrantMaxBandwidth() {
		link.SetMode(edp.Burst)
	}

	dec := codec.NewDecoder()
	dec.SetRowSink(func(row int, data []byte) {
		// Frame Buffer Bypass: rows go P2P to the DC buffer, not DRAM.
		vdP2P.Send(dcBuf, units.ByteSize(len(data)))
		dcBuf.data = append(dcBuf.data, data...)
	})
	gdec := codec.NewGOPDecoderWith(dec)

	window := cfg.Refresh.Window()
	wpf := int(cfg.Refresh) / int(cfg.FPS)
	verified, cksErrors := 0, 0
	advance := func(d time.Duration) { eng.RunUntil(eng.Now() + d) }

	// Display-order playback: with B-frames the packets arrive in decode
	// order; decode until the next display frame emerges, then ship it.
	pktIdx := 0
	var ready []*codec.Frame
	var readyBytes [][]byte
	for i := 0; i < cfg.Frames; i++ {
		frameInDRFB = false
		// Short C0: driver hands the encoded frame to the VD; the VD
		// prefetches it from DRAM while the package is still awake.
		pmu.SetComponents(soc.ComponentSet{
			soc.Cores: soc.CompActive, soc.VideoDec: soc.CompActive,
			soc.MemCtl: soc.CompActive, soc.DRAMDev: soc.CompActive,
		})
		if pktIdx < len(packets) {
			sz := units.ByteSize(packets[pktIdx].Size())
			vdDMA.ReadMem(sz)
			rec.NoteDRAM(sz, 0)
		}
		rec.NoteLabel("orch")
		advance(p.OrchTimeBL)

		// C7: decode into the DC buffer with DRAM in self-refresh. With
		// B-frames, several packets may need decoding before display
		// frame i is available.
		pmu.SetComponents(soc.ComponentSet{
			soc.Cores: soc.CompPowerGated, soc.MemCtl: soc.CompPowerGated,
			soc.DRAMDev: soc.CompPowerGated, soc.VideoDec: soc.CompActive,
			soc.DispCtl: soc.CompActive, soc.EDPHost: soc.CompActive,
			soc.Panel: soc.CompActive,
		})
		for len(ready) == 0 {
			if pktIdx >= len(packets) {
				return pipeline.FunctionalResult{}, fmt.Errorf("frame %d: stream exhausted", i)
			}
			dcBuf.data = dcBuf.data[:0]
			out, err := gdec.Push(packets[pktIdx])
			pktIdx++
			if err != nil {
				return pipeline.FunctionalResult{}, fmt.Errorf("frame %d: %w", i, err)
			}
			if units.ByteSize(len(dcBuf.data)) != frameBytes {
				return pipeline.FunctionalResult{}, fmt.Errorf("frame %d: DC buffer got %d bytes, want %v",
					i, len(dcBuf.data), frameBytes)
			}
			for _, fr := range out {
				ready = append(ready, fr)
				readyBytes = append(readyBytes, fr.Interleaved())
			}
		}
		frame := ready[0]
		frameData := readyBytes[0]
		ready = ready[1:]
		readyBytes = readyBytes[1:]
		rec.NoteBurst()
		rec.NoteLabel("decode+burst")
		decodeT := p.DecodeTimeLP(res, cfg.FPS)
		if decodeT < 100*time.Microsecond {
			decodeT = 100 * time.Microsecond
		}
		burstT := link.Transfer(frameBytes)
		if burstT > decodeT {
			// Link-bound: VD halts between chunks (C7'→C8 tail).
			pmu.SetComponent(soc.VideoDec, soc.CompClockGated)
			advance(burstT)
		} else {
			advance(decodeT)
		}

		// The frame is in the DRFB back bank; FrameReady flips it.
		if err := panel.ReceiveFrame(display.Frame{Seq: frame.Seq, Data: frameData}); err != nil {
			return pipeline.FunctionalResult{}, err
		}
		link.SendSideband(edp.SidebandMsg{Kind: edp.FrameReady, Slot: i % 2})
		for _, m := range link.DrainSideband() {
			if err := panel.HandleSideband(m); err != nil {
				return pipeline.FunctionalResult{}, err
			}
		}
		frameInDRFB = true

		// C9 for the rest of the period: every IP off, panel
		// self-refreshes from the DRFB.
		link.SetState(edp.LinkLowPower)
		pmu.SetComponents(soc.ComponentSet{
			soc.VideoDec: soc.CompPowerGated, soc.DispCtl: soc.CompPowerGated,
			soc.EDPHost: soc.CompPowerGated,
		})
		if pmu.State() != soc.C9 {
			return pipeline.FunctionalResult{}, fmt.Errorf("frame %d: package at %v, want C9", i, pmu.State())
		}
		for w := 0; w < wpf; w++ {
			shown, err := panel.Refresh()
			if err != nil {
				return pipeline.FunctionalResult{}, err
			}
			if w == 0 {
				if shown.Seq < len(sums) && shown.Checksum() == sums[shown.Seq] {
					verified++
				} else {
					cksErrors++
				}
			}
			_ = window
		}
		eng.RunUntil(time.Duration(i+1) * cfg.FPS.FrameInterval())
		link.SetState(edp.LinkOn)
	}

	read, write := mem.Traffic()
	tracker.Snapshot()
	return pipeline.FunctionalResult{
		Timeline:         rec.Finish(),
		Panel:            panel.Stats(),
		FramesVerified:   verified,
		ChecksumErrors:   cksErrors,
		DRAMRead:         read,
		DRAMWrite:        write,
		P2PBytes:         vdP2P.Moved(),
		VDActiveFraction: tracker.ActiveFraction(soc.VideoDec),
	}, nil
}
