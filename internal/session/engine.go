package session

import (
	"fmt"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/stream"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

// Engine is the delta-simulation session runner (DESIGN.md §4.9). It
// decomposes Run into three named segments — buffer delivery, period
// timeline generation, and power integration — each keyed by an
// explicit canonical input struct and memoized through a shared segment
// cache. A sweep that moves one knob recomputes only the segments that
// knob invalidates: changing bitrate reuses the timeline and power
// segments, changing seconds reuses all three (ExtendPeriod re-folds
// the cached per-period evaluation), changing the scheme reuses the
// buffer segment. Results are bit-identical to evaluating the fully
// expanded session timeline — the period fold recomposes the exact
// float folds of Evaluate(period.Repeat(frames)), which engine_test.go
// and power/repeat_test.go keep as the oracle — so memoization is
// invisible on the wire (the server's determinism test pins this).
type Engine struct {
	P pipeline.Platform
	M power.Model
	// Memo is the segment cache; nil (or disabled) recomputes every
	// segment from scratch.
	Memo *memo.Cache
}

// bufferInput is the canonical input of the buffer-delivery segment:
// frames arrive over a steady link at 1.5x the bitrate, and a
// constant-bandwidth delivery is fully determined by these six numbers.
type bufferInput struct {
	// Bandwidth is the constant delivery rate.
	Bandwidth units.DataRate
	// NetFrame is the on-wire frame size derived from the bitrate.
	NetFrame units.ByteSize
	// Frames is the playback length in frames.
	Frames int
	// FPS is the playback rate.
	FPS int
	// Prebuf is the startup buffer depth in frames.
	Prebuf int
	// Capacity is the jitter-buffer capacity.
	Capacity units.ByteSize
}

// AppendKey renders the segment input into its canonical key.
func (b bufferInput) AppendKey(w *memo.KeyWriter) {
	w.Float("bw", float64(b.Bandwidth))
	w.Uint("netframe", uint64(b.NetFrame))
	w.Int("frames", int64(b.Frames))
	w.Int("fps", int64(b.FPS))
	w.Int("prebuf", int64(b.Prebuf))
	w.Uint("cap", uint64(b.Capacity))
}

// timelineInput is the canonical input of the period-timeline segment:
// the scheme picks the scheduler, the scenario and platform parameterize
// it.
type timelineInput struct {
	Scheme   Scheme
	Scenario pipeline.Scenario
	Platform pipeline.Platform
}

// AppendKey renders the segment input into its canonical key.
func (t timelineInput) AppendKey(w *memo.KeyWriter) {
	w.Int("scheme", int64(t.Scheme))
	w.Sub("scenario", t.Scenario)
	w.Sub("platform", t.Platform)
}

// jitterCapacity is the fixed jitter-buffer size sessions play through.
const jitterCapacity = 64 * units.MB

// bufferStats runs the buffer-delivery segment through the segment cache.
func (e Engine) bufferStats(cfg Config, bitrate units.DataRate, frames int) (stream.Stats, error) {
	s := cfg.Scenario
	prebuf := cfg.PrebufferFrames
	if prebuf == 0 {
		prebuf = int(s.FPS)
	}
	netFrame := units.ByteSize(float64(bitrate) / 8 / float64(s.FPS))
	bw := units.DataRate(1.5 * float64(bitrate))
	in := bufferInput{
		Bandwidth: bw,
		NetFrame:  netFrame,
		Frames:    frames,
		FPS:       int(s.FPS),
		Prebuf:    prebuf,
		Capacity:  jitterCapacity,
	}
	return memo.Do(e.Memo, "buffer", in, func() (stream.Stats, error) {
		buf := stream.NewJitterBuffer(jitterCapacity)
		return stream.SimulateStreaming(stream.NewSource(stream.ConstantBandwidth(bw)), buf, netFrame, frames, s.FPS, prebuf)
	})
}

// periodTimeline runs the period-timeline segment: one scheduled period
// of the scheme on the platform, memoized by (scheme, scenario,
// platform). Cached timelines are shared read-only across cells.
func (e Engine) periodTimeline(sch Scheme, s pipeline.Scenario) (trace.Timeline, error) {
	return memo.Do(e.Memo, "timeline", timelineInput{Scheme: sch, Scenario: s, Platform: e.P},
		func() (trace.Timeline, error) { return sch.scheduler()(e.P, s) })
}

// Run plays the session through the segment pipeline. A nil Memo
// computes every segment from scratch; cached or not, the numbers are
// the same bit for bit.
func (e Engine) Run(cfg Config) (Result, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Seconds <= 0 {
		return Result{}, fmt.Errorf("session: non-positive duration")
	}
	s := cfg.Scenario
	frames := cfg.Seconds * int(s.FPS)

	// Segment 1: network delivery into the jitter buffer.
	encFrame := e.P.EncodedFrameSize(s.Res)
	if s.VR {
		encFrame = e.P.EncodedFrameSize(s.VRSource)
	}
	bitrate := cfg.Bitrate
	if bitrate <= 0 {
		bitrate = units.DataRate(float64(encFrame.Bits()) * float64(s.FPS))
	}
	bufStats, err := e.bufferStats(cfg, bitrate, frames)
	if err != nil {
		return Result{}, fmt.Errorf("session: network: %w", err)
	}

	// Segment 2: one scheduled period of playback.
	period, err := e.periodTimeline(cfg.Scheme, s)
	if err != nil {
		return Result{}, fmt.Errorf("session: %v: %w", cfg.Scheme, err)
	}

	// Segment 3: power integration over the period, then an exact
	// extension to the full session length.
	pe := e.M.EvaluatePeriodMemo(e.Memo, period, power.LoadOf(e.P, s))
	res := e.M.ExtendPeriod(pe, frames)

	bat := cfg.Battery
	if bat.CapacityMilliWattHours == 0 {
		bat = workload.SurfaceProBattery()
	}
	read, write := period.DRAMTraffic()
	return Result{
		Scheme:      cfg.Scheme,
		Frames:      frames,
		Stalls:      bufStats.Underruns,
		Buffer:      bufStats,
		AvgPower:    res.Average,
		Energy:      res.Energy,
		BatteryLife: bat.Life(res.Average),
		DRAMRead:    read * units.ByteSize(int(s.FPS)),
		DRAMWrite:   write * units.ByteSize(int(s.FPS)),
	}, nil
}

// Compare runs the same session under every scheme and returns the
// results in scheme order. Scheme-independent segments (the buffer
// delivery) compute once and hit the cache for the remaining schemes.
func (e Engine) Compare(cfg Config) ([]Result, error) {
	out := make([]Result, 0, 4)
	for _, sch := range Schemes() {
		c := cfg
		c.Scheme = sch
		r, err := e.Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
