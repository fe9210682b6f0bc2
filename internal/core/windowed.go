package core

import (
	"fmt"

	"burstlink/internal/display"
	"burstlink/internal/edp"
	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// WindowedConfig describes a windowed planar video (§4.1: "such as a video
// clip in a window inside the browser"), enabled by PSR2 selective
// updates.
type WindowedConfig struct {
	Scenario pipeline.Scenario
	// Region is the video window inside the panel.
	Region edp.Rect
}

// Validate checks the configuration.
func (c WindowedConfig) Validate() error {
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if c.Scenario.VR {
		// §4.1 footnote: VR is always full-screen on an HMD.
		return fmt.Errorf("core: windowed mode does not apply to VR")
	}
	if c.Region.Empty() {
		return fmt.Errorf("core: empty video region")
	}
	res := c.Scenario.Res
	if c.Region.X < 0 || c.Region.Y < 0 ||
		c.Region.X+c.Region.W > res.Width || c.Region.Y+c.Region.H > res.Height {
		return fmt.Errorf("core: region %+v outside panel %v", c.Region, res)
	}
	return nil
}

// RegionFraction returns the fraction of the panel the video occupies.
func (c WindowedConfig) RegionFraction() float64 {
	return float64(c.Region.Pixels()) / float64(c.Scenario.Res.Pixels())
}

// Windowed computes one steady-state frame period of BurstLink's
// second-stage windowed flow (§4.1): the graphical frame is static and
// lives in the DRFB; the VD decodes only the video window and the DC
// sends a PSR2 selective update (with offsets) that the panel applies at
// the right DRFB locations. Work scales with the region, not the panel.
func Windowed(p pipeline.Platform, c WindowedConfig) (trace.Timeline, error) {
	if err := c.Validate(); err != nil {
		return trace.Timeline{}, err
	}
	s := c.Scenario
	window := s.Refresh.Window()
	frac := c.RegionFraction()

	regionRes := units.Resolution{Width: c.Region.W, Height: c.Region.H}
	tC0 := p.OrchTimeBL
	tVD := p.DecodeTimeLP(regionRes, s.FPS)
	updBytes := regionRes.FrameSize(s.BPP)
	tBurst := p.Link.MaxBandwidth().TimeFor(updBytes)
	tXfer := tVD
	if tBurst > tXfer {
		tXfer = tBurst
	}
	if tC0+tXfer > window {
		return trace.Timeline{}, pipeline.ErrUnderrun{Scenario: s, Need: tC0 + tXfer, Have: window}
	}

	var tl trace.Timeline
	tl.Add(trace.Phase{
		State: soc.C0, Duration: tC0,
		DRAMRead: units.ByteSize(float64(p.EncodedFrameSize(s.Res)) * frac),
		Label:    "orch",
	})
	tl.Add(trace.Phase{State: soc.C7, Duration: tVD, EDPBurst: true, Label: "decode window→dc"})
	if tail := tXfer - tVD; tail > 0 {
		tl.Add(trace.Phase{State: soc.C7Prime, Duration: tail, EDPBurst: true, Label: "psr2 update→drfb"})
	}
	tl.AddState(soc.C9, window-tC0-tXfer, "psr2 idle")
	for w := 1; w < s.WindowsPerFrame(); w++ {
		tl.AddState(soc.C9, window, "psr(drfb)")
	}
	return tl, nil
}

// WindowedResult reports the functional windowed-video validation.
type WindowedResult struct {
	Frames     int
	SUBytes    units.ByteSize
	FullFrames units.ByteSize // what full-frame updates would have cost
	Tears      int
}

// RunWindowedFunctional drives the display-protocol side of windowed video
// on a real panel model: stage 1 composes and ships the initial
// full frame conventionally; stage 2 sends per-frame PSR2 selective
// updates for the video region only, verifying that pixels outside the
// region never change and that update traffic scales with the region.
func RunWindowedFunctional(c WindowedConfig, frames int) (WindowedResult, error) {
	if err := c.Validate(); err != nil {
		return WindowedResult{}, err
	}
	if frames <= 0 {
		return WindowedResult{}, fmt.Errorf("core: need at least one frame")
	}
	s := c.Scenario
	panel := display.NewPanel(display.Config{Resolution: s.Res, BPP: s.BPP, Refresh: s.Refresh, DoubleRFB: true})

	// Stage 1: initial composed frame (GUI + first video frame) arrives
	// conventionally.
	pxBytes := s.BPP / 8
	initial := make([]byte, s.Res.Pixels()*pxBytes)
	for i := range initial {
		initial[i] = 0x10 // GUI background
	}
	if err := panel.ReceiveFrame(display.Frame{Seq: 0, Data: initial}); err != nil {
		return WindowedResult{}, err
	}
	if err := panel.HandleSideband(edp.SidebandMsg{Kind: edp.FrameReady}); err != nil {
		return WindowedResult{}, err
	}
	if _, err := panel.Refresh(); err != nil {
		return WindowedResult{}, err
	}
	// Stage 2 begins: host detects a static GUI and enters PSR2.
	if err := panel.HandleSideband(edp.SidebandMsg{Kind: edp.PSREnter}); err != nil {
		return WindowedResult{}, err
	}
	if err := panel.HandleSideband(edp.SidebandMsg{Kind: edp.PSR2Update}); err != nil {
		return WindowedResult{}, err
	}

	upd := make([]byte, c.Region.Pixels()*pxBytes)
	for i := 1; i <= frames; i++ {
		for j := range upd {
			upd[j] = byte(0x80 + i) // new video content each frame
		}
		if err := panel.SelectiveUpdate(c.Region, upd, i); err != nil {
			return WindowedResult{}, err
		}
		shown, err := panel.Refresh()
		if err != nil {
			return WindowedResult{}, err
		}
		// Verify: inside updated, outside untouched.
		inside := ((c.Region.Y+1)*s.Res.Width + c.Region.X + 1) * pxBytes
		if shown.Data[inside] != byte(0x80+i) {
			return WindowedResult{}, fmt.Errorf("frame %d: video region not updated", i)
		}
		if shown.Data[0] != 0x10 {
			return WindowedResult{}, fmt.Errorf("frame %d: GUI region corrupted", i)
		}
		if shown.Seq != i {
			return WindowedResult{}, fmt.Errorf("frame %d: displayed seq %d", i, shown.Seq)
		}
	}
	st := panel.Stats()
	return WindowedResult{
		Frames:     frames,
		SUBytes:    st.SUBytes,
		FullFrames: units.ByteSize(frames) * s.FrameSize(),
		Tears:      st.Tears,
	}, nil
}
