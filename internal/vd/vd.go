// Package vd models the hardware video decoder's microarchitecture at the
// timing level: the per-macroblock stage pipeline of §2.4 (entropy
// decoding → inverse quantization/inverse DCT → prediction/reconstruction
// → writeback), macroblock-level pipelining in the style the paper cites
// (Chen et al., ISCAS'04; Jin et al., ISCAS'07), frequency scaling between
// the C0 operating point and BurstLink's low-power C7 point, and the
// batch-decode mode of Zhang et al. (MICRO'17).
//
// Its closed-form throughput grounds the Platform.VDPixelRate /
// VDPixelRateLP constants used by the analytic schedulers, and an
// event-driven simulation of the same pipeline (Simulate) cross-checks
// the closed form. It is a reference model: its callers are
// TestThroughputMatchesPlatformAnchor and TestWithVDStaysCalibrated.
package vd

import (
	"fmt"
	"time"

	"burstlink/internal/codec"
	"burstlink/internal/sim"
	"burstlink/internal/units"
)

// Stage identifies one pipeline stage.
type Stage int

// Decoder pipeline stages (§2.4).
const (
	StageEntropy   Stage = iota // entropy decoding (CABAC/CAVLC class)
	StageTransform              // inverse quantization + inverse DCT
	StagePredict                // intra prediction / motion compensation
	StageWriteback              // reconstructed-macroblock writeback
	numStages
)

var stageNames = [...]string{"entropy", "transform", "predict", "writeback"}

// String names the stage.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// Config describes a hardware decoder.
type Config struct {
	// ClockHz is the decoder clock at the C0 operating point.
	ClockHz units.Frequency
	// LPClockHz is the power-constrained C7 operating point (§4.1's
	// interleaved decode runs here).
	LPClockHz units.Frequency
	// CyclesPerMB is each stage's per-macroblock latency in cycles.
	CyclesPerMB [numStages]int
}

// Default returns a Skylake-class fixed-function decoder configuration:
// bottleneck stage ~160 cycles per 16×16 macroblock at 650 MHz ≈ 1.04
// Gpix/s, matching the Table 2 derivation used by pipeline.Platform
// (FHD decode ≈ 2 ms).
func Default() Config {
	return Config{
		ClockHz:   650e6,
		LPClockHz: 219e6,
		CyclesPerMB: [numStages]int{
			StageEntropy:   160, // bottleneck: serial bitstream parsing
			StageTransform: 128,
			StagePredict:   144,
			StageWriteback: 96,
		},
	}
}

// bottleneck returns the slowest stage's cycle count.
func (c Config) bottleneck() int {
	max := 0
	for _, cy := range c.CyclesPerMB {
		if cy > max {
			max = cy
		}
	}
	return max
}

// fillCycles is the pipeline fill latency: the sum of all stages for the
// first macroblock.
func (c Config) fillCycles() int {
	sum := 0
	for _, cy := range c.CyclesPerMB {
		sum += cy
	}
	return sum
}

// FrameCycles returns the pipelined cycle count to decode a frame of mbs
// macroblocks: fill + (mbs-1) × bottleneck.
func (c Config) FrameCycles(mbs int) int {
	if mbs <= 0 {
		return 0
	}
	return c.fillCycles() + (mbs-1)*c.bottleneck()
}

// FrameTime returns the decode time for a frame of the given resolution
// at the C0 clock.
func (c Config) FrameTime(res units.Resolution) time.Duration {
	return c.frameTimeAt(res, c.ClockHz)
}

// FrameTimeLP returns the decode time at the low-power C7 clock.
func (c Config) FrameTimeLP(res units.Resolution) time.Duration {
	return c.frameTimeAt(res, c.LPClockHz)
}

func (c Config) frameTimeAt(res units.Resolution, hz units.Frequency) time.Duration {
	mbw, mbh := (res.Width+codec.MBSize-1)/codec.MBSize, (res.Height+codec.MBSize-1)/codec.MBSize
	cycles := c.FrameCycles(mbw * mbh)
	return time.Duration(float64(cycles) / float64(hz) * float64(time.Second))
}

// Throughput returns the steady-state pixel rate at the C0 clock.
func (c Config) Throughput() float64 {
	return float64(c.ClockHz) / float64(c.bottleneck()) * codec.MBSize * codec.MBSize
}

// ThroughputLP returns the steady-state pixel rate at the C7 clock.
func (c Config) ThroughputLP() float64 {
	return float64(c.LPClockHz) / float64(c.bottleneck()) * codec.MBSize * codec.MBSize
}

// BatchTime returns the time to decode batch frames back to back at a
// boosted clock (Zhang et al.'s race-to-sleep decode): the pipeline stays
// filled across frame boundaries, so only one fill is paid.
func (c Config) BatchTime(res units.Resolution, batch int, boost float64) time.Duration {
	if batch <= 0 {
		return 0
	}
	if boost < 1 {
		boost = 1
	}
	mbw, mbh := (res.Width+codec.MBSize-1)/codec.MBSize, (res.Height+codec.MBSize-1)/codec.MBSize
	mbs := mbw * mbh * batch
	cycles := c.fillCycles() + (mbs-1)*c.bottleneck()
	return time.Duration(float64(cycles) / (float64(c.ClockHz) * boost) * float64(time.Second))
}

// Simulate runs the 4-stage macroblock pipeline on the discrete-event
// engine for mbs macroblocks and returns the makespan in cycles. Each
// stage is a unit-capacity server; macroblock i enters stage s when both
// stage s is free and macroblock i left stage s-1 — the classic pipelined
// schedule whose makespan the closed form predicts.
func (c Config) Simulate(mbs int) int64 {
	if mbs <= 0 {
		return 0
	}
	// stageFree[s] is the cycle at which stage s can accept new work;
	// ready is when the current macroblock finished the previous stage.
	var stageFree [numStages]int64
	var done int64
	eng := &sim.Engine{} // exercised for event accounting parity
	for i := 0; i < mbs; i++ {
		var ready int64
		for s := Stage(0); s < numStages; s++ {
			start := ready
			if stageFree[s] > start {
				start = stageFree[s]
			}
			end := start + int64(c.CyclesPerMB[s])
			stageFree[s] = end
			ready = end
			eng.Schedule(time.Duration(end), fmt.Sprintf("mb%d:%v", i, s), func() {})
		}
		done = ready
	}
	eng.Run()
	return done
}
