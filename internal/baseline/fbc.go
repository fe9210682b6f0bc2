// Package baseline implements the competing techniques the paper compares
// BurstLink against in §6.4: frame-buffer compression (FBC), Zhang et
// al.'s race-to-sleep + content caching + display caching, and VIP's IP
// chaining. Each produces timelines through the same Platform/Scenario
// machinery as the conventional and BurstLink schedulers, so the
// comparisons in Fig 13 and the §6.4 text reproduce end to end.
package baseline

import (
	"time"

	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// FBCConfig tunes the frame-buffer-compression baseline (Fig 13).
type FBCConfig struct {
	// Rate is the compression rate: 0.5 means the frame buffer shrinks
	// to 50%. Modern FBC reaches up to 50% (§6.4).
	Rate float64
	// ComputeOverhead is the extra decode-side time for the compression
	// pass, as a fraction of decode time (§6.4: "high computational
	// overheads").
	ComputeOverhead float64
	// DecompressBound limits how much of the byte reduction turns into
	// fetch-time reduction: the DC's decompressor pipelines with the
	// fetch, so time shrinks less than bytes do.
	DecompressBound float64
}

// DefaultFBC returns the configuration used in Fig 13's reproduction.
func DefaultFBC(rate float64) FBCConfig {
	return FBCConfig{Rate: rate, ComputeOverhead: 0.18, DecompressBound: 0.55}
}

// FBC computes one frame period of the conventional pipeline with
// frame-buffer compression enabled (Intel FBC-style, §6.4): the decoded
// frame is compressed before the DRAM store, the DC fetches and
// decompresses it, and the link remains pixel-paced. DRAM traffic shrinks
// by Rate; active time shrinks less (decompression bound); the VD pays a
// compression compute overhead.
func FBC(p pipeline.Platform, s pipeline.Scenario, cfg FBCConfig) (trace.Timeline, error) {
	if err := s.Validate(); err != nil {
		return trace.Timeline{}, err
	}
	window := s.Refresh.Window()
	frame := s.FrameSize()
	kept := 1 - cfg.Rate
	compressed := units.ByteSize(float64(frame) * kept)

	tDecode := p.DecodeTime(s.Res, s.FPS)
	tC0 := p.OrchTime + tDecode + time.Duration(float64(tDecode)*cfg.ComputeOverhead)
	read := p.EncodedFrameSize(s.Res)

	// Fetch time shrinks by only DecompressBound of the byte saving.
	tFetch := p.FetchTime(s.Res, s.BPP, s.FPS)
	tFetch = time.Duration(float64(tFetch) * (1 - cfg.Rate*cfg.DecompressBound))
	slack := window - tC0 - tFetch
	if slack < 0 {
		return trace.Timeline{}, pipeline.ErrUnderrun{Scenario: s, Need: tC0 + tFetch, Have: window}
	}

	var tl trace.Timeline
	tl.Add(trace.Phase{State: soc.C0, Duration: tC0, DRAMRead: read, DRAMWrite: compressed, Label: "decode+compress"})
	nChunks := int((compressed + p.DCBufSize - 1) / p.DCBufSize)
	if nChunks < 1 {
		nChunks = 1
	}
	cf := tFetch / time.Duration(nChunks)
	cd := slack / time.Duration(nChunks)
	cb := compressed / units.ByteSize(nChunks)
	for i := 0; i < nChunks; i++ {
		tl.Add(trace.Phase{State: soc.C2, Duration: cf, DRAMRead: cb, Label: "dc fetch+decompress"})
		tl.Add(trace.Phase{State: soc.C8, Duration: cd, Label: "dc drain"})
	}
	for w := 1; w < s.WindowsPerFrame(); w++ {
		tl.AddState(soc.C8, window, "psr")
	}
	return tl, nil
}
