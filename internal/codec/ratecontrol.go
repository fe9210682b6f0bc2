package codec

import (
	"fmt"

	"burstlink/internal/units"
)

// RateController adapts the encoder's quality setting to hit a target
// bitrate — the mechanism behind §2.4's "encoded frames, each of which is
// hundreds of KBytes": streaming services pick a bitrate, and the encoder
// tracks it. It is a simple multiplicative-increase/decrease controller
// on the per-frame byte budget with a quality floor and ceiling.
type RateController struct {
	target  units.ByteSize // per-frame byte budget
	quality int
	minQ    int
	maxQ    int

	produced units.ByteSize
	frames   int
}

// NewRateController builds a controller for the given stream bitrate and
// frame rate.
func NewRateController(bitrate units.DataRate, fps units.FPS, startQuality int) (*RateController, error) {
	if bitrate <= 0 || fps <= 0 {
		return nil, fmt.Errorf("codec: invalid rate-control parameters")
	}
	if startQuality < 1 || startQuality > 100 {
		startQuality = 50
	}
	perFrame := units.ByteSize(float64(bitrate) / 8 / float64(fps))
	return &RateController{target: perFrame, quality: startQuality, minQ: 5, maxQ: 95}, nil
}

// Quality returns the quality to use for the next frame.
func (rc *RateController) Quality() int { return rc.quality }

// TargetFrameBytes returns the per-frame budget.
func (rc *RateController) TargetFrameBytes() units.ByteSize { return rc.target }

// Observe feeds back the size of the frame just encoded and adapts the
// quality for the next one.
func (rc *RateController) Observe(packetBytes units.ByteSize) {
	rc.produced += packetBytes
	rc.frames++
	ratio := float64(packetBytes) / float64(rc.target)
	switch {
	case ratio > 1.3:
		rc.quality -= 8
	case ratio > 1.05:
		rc.quality -= 3
	case ratio < 0.5:
		rc.quality += 6
	case ratio < 0.85:
		rc.quality += 2
	}
	if rc.quality < rc.minQ {
		rc.quality = rc.minQ
	}
	if rc.quality > rc.maxQ {
		rc.quality = rc.maxQ
	}
}

// AverageFrameBytes returns the mean encoded frame size so far.
func (rc *RateController) AverageFrameBytes() units.ByteSize {
	if rc.frames == 0 {
		return 0
	}
	return rc.produced / units.ByteSize(rc.frames)
}

// RateControlledEncoder couples an Encoder with a RateController: each
// frame is encoded at the controller's current quality.
type RateControlledEncoder struct {
	w, h int
	cfg  EncoderConfig
	rc   *RateController
	enc  *Encoder
}

// NewRateControlledEncoder builds the pair. The controller overrides the
// config's Quality per frame.
func NewRateControlledEncoder(w, h int, cfg EncoderConfig, rc *RateController) (*RateControlledEncoder, error) {
	if rc == nil {
		return nil, fmt.Errorf("codec: nil rate controller")
	}
	cfg.Quality = rc.Quality()
	enc, err := NewEncoder(w, h, cfg)
	if err != nil {
		return nil, err
	}
	return &RateControlledEncoder{w: w, h: h, cfg: cfg, rc: rc, enc: enc}, nil
}

// Encode compresses the next frame at the adaptive quality.
func (r *RateControlledEncoder) Encode(f *Frame) (Packet, EncodeStats, error) {
	// Changing the quality means a new quant table. The encoder's
	// references were reconstructed with earlier tables, which is fine:
	// prediction works on pixels, and the per-packet quality header
	// keeps the decoder in lockstep.
	if q := r.rc.Quality(); q != r.enc.cfg.Quality {
		r.enc.cfg.Quality = q
		r.enc.table = quantTable(q)
	}
	pkt, stats, err := r.enc.Encode(f)
	if err != nil {
		return pkt, stats, err
	}
	r.rc.Observe(units.ByteSize(pkt.Size()))
	return pkt, stats, nil
}
