package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"burstlink/internal/codec"
	"burstlink/internal/core"
	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
)

// functional: in process, one caller, no HTTP. Every operation is what
// `burstlink functional` does — a fresh segment cache, then the
// conventional and the BurstLink functional simulators on one synthetic
// clip — so the codec and the event-driven SoC model (sim, soc, dram,
// interconnect, vd, display, edp) run here and nowhere else. The clip is
// fixed, not drawn from the seed, so its result digest can be pinned.
func init() {
	register(workloadSpec{
		name:    "functional",
		clients: 1,
		params: func(sz size) map[string]any {
			c := clip(sz)
			return map[string]any{"clients": 1, "clip_width": c.Width, "clip_height": c.Height,
				"clip_frames": c.Frames, "fps": int(c.FPS), "refresh_hz": int(c.Refresh)}
		},
		setup: setupFunctional,
	})
}

func clip(sz size) pipeline.FunctionalConfig {
	if sz == smokeSize {
		return pipeline.FunctionalConfig{Width: 64, Height: 48, Frames: 6, FPS: 30, Refresh: 60}
	}
	return pipeline.FunctionalConfig{Width: 320, Height: 180, Frames: 24, FPS: 30, Refresh: 60}
}

// Pinned SHA-256 digests of both simulators' results on each clip. A
// change that alters what the functional simulators compute fails the
// gate on every operation.
var functionalDigest = map[size]string{
	fullSize:  "bd110c05848b72b6e00d1acc7050784b0fbd833eac74d9e7a35f658c7165bd6a",
	smokeSize: "192537ac4501525f4665b275a06ca86178f93d9de4fbb097bb84798786be07f4",
}

type functionalSystem struct {
	p        pipeline.Platform
	cfg      pipeline.FunctionalConfig
	sz       size
	verified atomic.Int64 // operations whose outputs passed every check
}

func setupFunctional(cfg runConfig, _ *tracer) (system, error) {
	s := &functionalSystem{p: pipeline.DefaultPlatform(), cfg: clip(cfg.size), sz: cfg.size}
	// The warm-up runs `burstlink functional`'s default clip twice: code
	// paths and allocator warm, nothing the timed clip could reuse.
	w := &functionalSystem{p: s.p, cfg: pipeline.FunctionalConfig{Width: 128, Height: 96, Frames: 16, FPS: 30, Refresh: 60}}
	for i := 0; i < 2; i++ {
		base, bl, err := w.simulate()
		if err == nil && (base.ChecksumErrors != 0 || bl.ChecksumErrors != 0) {
			err = fmt.Errorf("checksum errors %d, %d", base.ChecksumErrors, bl.ChecksumErrors)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// simulate runs both functional simulators on the clip through one
// fresh segment cache, which shares the clip's encode between them.
func (s *functionalSystem) simulate() (base, bl pipeline.FunctionalResult, err error) {
	seg := memo.NewCache(8)
	if base, err = pipeline.RunFunctionalMemo(s.p, seg, s.cfg); err != nil {
		return base, bl, err
	}
	bl, err = core.RunFunctionalMemo(s.p, seg, s.cfg)
	return base, bl, err
}

func (s *functionalSystem) op(_ context.Context, _ int) (work, error) {
	base, bl, err := s.simulate()
	if err != nil {
		return work{}, err
	}
	for _, r := range []pipeline.FunctionalResult{base, bl} {
		if r.FramesVerified != s.cfg.Frames || r.ChecksumErrors != 0 {
			return work{}, fmt.Errorf("%d of %d frames verified, %d checksum errors", r.FramesVerified, s.cfg.Frames, r.ChecksumErrors)
		}
	}
	d, err := digest(base, bl)
	if err != nil {
		return work{}, err
	}
	if want := functionalDigest[s.sz]; d != want {
		return work{}, fmt.Errorf("result digest %s, want %s", d, want)
	}
	s.verified.Add(1)
	return work{devices: 2, frames: 2 * s.cfg.Frames}, nil
}

// digest is the SHA-256 of both results' JSON encoding.
func digest(base, bl pipeline.FunctionalResult) (string, error) {
	b, err := json.Marshal([]pipeline.FunctionalResult{base, bl})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// gate: every operation checks its own outputs (frames verified,
// checksum errors, the pinned digest), so a mismatch has already failed
// its operation; the gate reports how many passed.
func (s *functionalSystem) gate(context.Context) (int, int, error) {
	return int(s.verified.Load()), 0, nil
}

func (s *functionalSystem) close() error { return nil }

// layers times the codec's public encoder and decoder on the clip's
// frames, and the event-driven model alone: both simulators with the
// clip's encode already in the segment cache.
func (s *functionalSystem) layers(_ context.Context, _ int, lr *layerReport) error {
	packets, _, err := pipeline.SyntheticVideo(s.cfg)
	if err != nil {
		return err
	}
	dec := codec.NewDecoder()
	var frames []*codec.Frame
	t0 := time.Now()
	for _, p := range packets {
		f, err := dec.Decode(p)
		if err != nil {
			return err
		}
		frames = append(frames, f.Clone())
	}
	lr.set("codec.decode_ms_per_frame", ms(time.Since(t0))/float64(len(packets)))

	enc, err := codec.NewGOPEncoder(s.cfg.Width, s.cfg.Height,
		codec.EncoderConfig{Quality: 50, GOP: 8, SearchWindow: 4, SkipThreshold: 512}, 0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, f := range frames {
		if _, err := enc.Push(f); err != nil {
			return err
		}
	}
	if _, err := enc.Flush(); err != nil {
		return err
	}
	lr.set("codec.encode_ms_per_frame", ms(time.Since(t0))/float64(len(frames)))

	seg := memo.NewCache(8)
	if _, err := pipeline.RunFunctionalMemo(s.p, seg, s.cfg); err != nil {
		return err
	}
	const reps = 3
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := pipeline.RunFunctionalMemo(s.p, seg, s.cfg); err != nil {
			return err
		}
		if _, err := core.RunFunctionalMemo(s.p, seg, s.cfg); err != nil {
			return err
		}
	}
	lr.set("pipeline.protocol_ms", ms(time.Since(t0))/reps)
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
