// Package pipeline models the video display pipeline of a Skylake-class
// mobile system (§2.4–2.5): the timing parameters of the platform's IPs
// (decoder, display controller, GPU, DRAM, eDP link) and the conventional
// display scheduler that produces package C-state timelines like the
// paper's Fig 3. BurstLink's schedulers build on the same Platform in
// internal/core.
//
// Two simulators live here. The analytic scheduler (Conventional) computes
// the steady-state timeline of one video period at any resolution and is
// what the experiments and power model consume. The functional simulator
// (RunFunctionalMemo) drives the real codec, DMA engines, eDP link, and panel
// through the discrete-event engine at small resolutions to validate the
// protocol end to end (tear-freedom, PSR sequencing, frame integrity).
package pipeline

import (
	"fmt"
	"math"
	"time"

	"burstlink/internal/dram"
	"burstlink/internal/edp"
	"burstlink/internal/units"
)

// Platform holds the calibrated timing parameters of the evaluated system
// (Table 3's Intel i5-6300U reference tablet).
//
// IP throughputs scale with workload demand: a pipeline asked to move
// pixels×fps beyond the FHD-30FPS anchor clocks its IPs up (DVFS), so
// latency grows sublinearly with demand. The scaling factor is
// (pixels·fps / pixels_FHD·30)^ThroughputExp.
//
// The FHD anchor values derive from the paper's Table 2 residencies:
// 9% C0 over a 33.3 ms 30 FPS period is ~3 ms (≈1 ms orchestration +
// ≈2 ms decode), and 11% C2 is ~3.7 ms of DC fetch for an 8.3 MB frame
// (≈2.26 GB/s effective). The low-power decode rate reproduces BurstLink's
// 19% C7/C7' residency (§4.1: decode interleaved across the window in C7).
type Platform struct {
	// VDPixelRate is the video decoder throughput at C0 (pixels/s) at
	// the FHD-30FPS anchor point.
	VDPixelRate float64
	// VDPixelRateLP is the decoder throughput in the C7 bypass mode,
	// where the VD runs at a power-constrained frequency.
	VDPixelRateLP float64
	// GPUPixelRate is the projection throughput for VR frames (pixels/s).
	GPUPixelRate float64
	// DCFetchRate is the display controller's effective DRAM fetch
	// bandwidth at the anchor point.
	DCFetchRate units.DataRate
	// ThroughputExp scales IP throughput with pixel·fps demand.
	ThroughputExp float64
	// OrchTime is the per-frame driver orchestration time on the CPU
	// (programming DMA engines, handling interrupts; §2.4).
	OrchTime time.Duration
	// OrchTimeBL is the reduced orchestration time when BurstLink
	// offloads part of it to PMU firmware (§6.4: ~10% → <5% of frame
	// time; we use the measured 2% C0 of Table 2).
	OrchTimeBL time.Duration
	// DCBufSize is the display controller's internal double buffer
	// (chunk granularity of DRAM fetches, §2.4: e.g. 512 KB).
	DCBufSize units.ByteSize
	// EncodedBitsPerPixel approximates stream bitrate: encoded frames
	// are ~hundreds of KB (§2.4), i.e. ~0.45 bits/pixel.
	EncodedBitsPerPixel float64
	// DRAM and Link describe the memory and display interfaces.
	DRAM dram.Config
	Link edp.LinkConfig
	// PSRDeep lets the baseline enter C9 instead of C8 during PSR
	// windows (the idealized Fig 3(a) behaviour). The measured system of
	// Table 2 stays in C8, so the default is false.
	PSRDeep bool
}

// DefaultPlatform returns the calibrated baseline platform.
func DefaultPlatform() Platform {
	return Platform{
		VDPixelRate:         1040e6, // FHD (2.07 Mpix) in ~2 ms
		VDPixelRateLP:       350e6,  // FHD in ~5.9 ms (Table 2: ~19% C7)
		GPUPixelRate:        750e6,  // projective transform throughput (fixed clock)
		DCFetchRate:         units.GBps(1.70),
		ThroughputExp:       0.75,
		OrchTime:            1 * time.Millisecond,
		OrchTimeBL:          666 * time.Microsecond, // 2% of 33.3 ms
		DCBufSize:           512 * units.KB,
		EncodedBitsPerPixel: 0.45,
		DRAM:                DefaultDRAM(),
		Link:                edp.EDP14(),
	}
}

// DefaultDRAM returns the memory configuration used for calibration. The
// bandwidth-proportional coefficients are higher than the raw device
// figures in dram.DefaultLPDDR3 because the paper's Fig 1 attributes the
// full memory-rail power (device + IO) to "DRAM", which is what its >30%
// share at 4K reflects.
func DefaultDRAM() dram.Config {
	cfg := dram.DefaultLPDDR3()
	cfg.CKEHighPower = 640 * units.MilliWatt
	cfg.SelfRefreshPower = 45 * units.MilliWatt
	cfg.ReadPowerPerGBps = 200 * units.MilliWatt
	cfg.WritePowerPerGBps = 240 * units.MilliWatt
	return cfg
}

// anchorDemand is the pixel·fps product of the FHD-30FPS calibration
// point.
const anchorDemand = 1920 * 1080 * 30

// Demand returns the DVFS throughput multiplier for moving pixels·fps
// worth of content.
func (p Platform) Demand(pixels int, fps units.FPS) float64 {
	d := float64(pixels) * float64(fps) / anchorDemand
	if d <= 0 {
		return 1
	}
	return math.Pow(d, p.ThroughputExp)
}

func rateTime(pixels int, rate float64) time.Duration {
	return time.Duration(float64(pixels) / rate * float64(time.Second))
}

// DecodeTime returns the VD time to decode one frame at C0.
func (p Platform) DecodeTime(res units.Resolution, fps units.FPS) time.Duration {
	return rateTime(res.Pixels(), p.VDPixelRate*p.Demand(res.Pixels(), fps))
}

// DecodeTimeLP returns the VD time to decode one frame in the C7 bypass
// mode.
func (p Platform) DecodeTimeLP(res units.Resolution, fps units.FPS) time.Duration {
	return rateTime(res.Pixels(), p.VDPixelRateLP*p.Demand(res.Pixels(), fps))
}

// ProjectTime returns the GPU time to project one VR frame to the given
// viewport. The GPU runs the projective transform at a fixed clock, so the
// time is proportional to viewport pixels; motionFactor ≥ 1 scales effort
// with head-motion intensity (more reprojection work per frame).
func (p Platform) ProjectTime(viewport units.Resolution, fps units.FPS, motionFactor float64) time.Duration {
	if motionFactor < 1 {
		motionFactor = 1
	}
	base := rateTime(viewport.Pixels(), p.GPUPixelRate)
	return time.Duration(float64(base) * motionFactor)
}

// FetchTime returns the DC's time to pull one frame from DRAM.
func (p Platform) FetchTime(res units.Resolution, bpp int, fps units.FPS) time.Duration {
	rate := units.DataRate(float64(p.DCFetchRate) * p.Demand(res.Pixels(), fps))
	return rate.TimeFor(res.FrameSize(bpp))
}

// BurstTime returns the time to push one frame over the link at maximum
// bandwidth (Frame Bursting, §4.2).
func (p Platform) BurstTime(res units.Resolution, bpp int) time.Duration {
	return p.Link.MaxBandwidth().TimeFor(res.FrameSize(bpp))
}

// EncodedFrameSize returns the modeled size of one encoded frame.
func (p Platform) EncodedFrameSize(res units.Resolution) units.ByteSize {
	return units.ByteSize(float64(res.Pixels()) * p.EncodedBitsPerPixel / 8)
}

// Scenario describes one streaming workload configuration.
type Scenario struct {
	Res     units.Resolution
	Refresh units.RefreshRate
	FPS     units.FPS
	BPP     int
	// VR marks a 360° workload: decode the (equirect) source, then the
	// GPU projects it to Res before display (§2.4). MotionFactor scales
	// GPU effort with the workload's head-motion intensity (Fig 11a).
	VR           bool
	VRSource     units.Resolution
	MotionFactor float64
}

// Planar builds a standard full-screen streaming scenario at 24 bpp.
func Planar(res units.Resolution, refresh units.RefreshRate, fps units.FPS) Scenario {
	return Scenario{Res: res, Refresh: refresh, FPS: fps, BPP: 24}
}

// Validate checks internal consistency: the refresh rate must be a
// multiple of the video frame rate, as the paper's scenarios all are.
func (s Scenario) Validate() error {
	if s.Res.Pixels() <= 0 || s.BPP <= 0 || s.Refresh <= 0 || s.FPS <= 0 {
		return fmt.Errorf("pipeline: incomplete scenario %+v", s)
	}
	if int(s.Refresh)%int(s.FPS) != 0 {
		return fmt.Errorf("pipeline: refresh %d not a multiple of FPS %d", s.Refresh, s.FPS)
	}
	if s.VR && s.VRSource.Pixels() <= 0 {
		return fmt.Errorf("pipeline: VR scenario without source resolution")
	}
	return nil
}

// WindowsPerFrame returns how many refresh windows each video frame spans
// (2 for 30 FPS on 60 Hz).
func (s Scenario) WindowsPerFrame() int { return int(s.Refresh) / int(s.FPS) }

// Period returns the duration of one video frame period.
func (s Scenario) Period() time.Duration { return s.FPS.FrameInterval() }

// FrameSize returns the decoded frame size.
func (s Scenario) FrameSize() units.ByteSize { return s.Res.FrameSize(s.BPP) }

// DemandScale returns the scenario's IP throughput multiplier; the power
// model also uses it to scale active-state power with DVFS (§5.2: "changes
// in each SoC component's operating frequency").
func (s Scenario) DemandScale(p Platform) float64 {
	px := s.Res.Pixels()
	if s.VR && s.VRSource.Pixels() > px {
		px = s.VRSource.Pixels()
	}
	return p.Demand(px, s.FPS)
}
