package core

import (
	"fmt"

	"burstlink/internal/edp"
	"burstlink/internal/pipeline"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// Features is the subset of BurstLink the driver enabled after capability
// negotiation. Negotiate, Schedule and Features are called by
// enable_test.go today; they are kept in case capability negotiation
// becomes the service's fallback (ROADMAP.md).
type Features struct {
	Bypass, Burst, Windowed bool
}

// Negotiate performs the driver's bring-up check against the panel's
// DPCD-style capabilities and returns the feature set BurstLink may use:
//
//   - Frame Buffer Bypass needs no panel change by itself (the VD→DC path
//     is host-side), but pairing it with bursting needs the DRFB;
//   - Frame Bursting requires the DRFB sink;
//   - windowed mode requires PSR2 selective updates.
func Negotiate(caps edp.Capabilities) Features {
	return Features{
		Bypass:   true,
		Burst:    caps.SupportsBursting(),
		Windowed: caps.SupportsWindowed(),
	}
}

// Schedule runs the best scheduler the negotiated features allow — the
// driver-facing entry point a downstream adopter calls instead of picking
// a scheduler by hand. With a conventional panel it degrades to
// bypass-only; with no features it falls back to the conventional
// pipeline (§4.1: "For all cases that BurstLink does not support, the
// system falls back to the conventional display mode").
func Schedule(p pipeline.Platform, s pipeline.Scenario, caps edp.Capabilities) (trace.Timeline, Features, error) {
	f := Negotiate(caps)
	// Clamp the host link to the negotiated burst rate (the slower end
	// of the link wins, as in DP link training).
	if f.Burst {
		rate := caps.NegotiatedBurstRate(p.Link)
		if rate <= 0 {
			f.Burst = false
		} else if rate < p.Link.MaxBandwidth() {
			scale := float64(rate) / float64(p.Link.MaxBandwidth())
			p.Link.LaneRate = units.DataRate(float64(p.Link.LaneRate) * scale)
		}
	}
	switch {
	case f.Bypass && f.Burst:
		tl, err := BurstLink(p, s)
		return tl, f, err
	case f.Bypass:
		tl, err := BypassOnly(p, s)
		return tl, f, err
	default:
		tl, err := pipeline.Conventional(p, s)
		return tl, f, err
	}
}

// String renders the feature set.
func (f Features) String() string {
	return fmt.Sprintf("bypass=%v burst=%v windowed=%v", f.Bypass, f.Burst, f.Windowed)
}
