// Package edp models the embedded-DisplayPort link between the SoC's
// display controller and the panel's timing controller (§2.3, §3
// Observation 2). It captures the two facts BurstLink exploits: the link's
// maximum payload bandwidth (25.92 Gbps for eDP 1.4: four HBR3 lanes at
// 8.1 Gbps with 8b/10b coding) is far above the pixel rate conventional
// systems pace it at, and the link supports a PSR/PSR2 sideband protocol
// for self-refresh and selective updates.
package edp

import (
	"fmt"
	"time"

	"burstlink/internal/units"
)

// LinkConfig describes the physical link.
type LinkConfig struct {
	Lanes       int
	LaneRate    units.DataRate // raw per-lane line rate
	CodingRatio float64        // payload fraction after line coding (0.8 for 8b/10b)
}

// EDP14 returns the eDP 1.4 configuration: 4 lanes × HBR3 8.1 Gbps ×
// 8b/10b = 25.92 Gbps payload, the figure the paper quotes (§3).
func EDP14() LinkConfig {
	return LinkConfig{Lanes: 4, LaneRate: 8.1 * units.Gbps, CodingRatio: 0.8}
}

// MaxBandwidth returns the link's maximum payload bandwidth.
func (c LinkConfig) MaxBandwidth() units.DataRate {
	return units.DataRate(float64(c.LaneRate) * float64(c.Lanes) * c.CodingRatio)
}

// Mode is the link pacing mode.
type Mode int

// Link pacing modes.
const (
	// PixelPaced throttles the link to the panel's pixel-update rate, the
	// conventional coupling of DC, link, and pixel formatter (§3 Obs. 2).
	PixelPaced Mode = iota
	// Burst runs the link at its maximum payload bandwidth, BurstLink's
	// Frame Bursting mode (§4.2).
	Burst
)

// String names the mode.
func (m Mode) String() string {
	if m == Burst {
		return "burst"
	}
	return "pixel-paced"
}

// PowerState is the link electrical state on both ends.
type PowerState int

// Link power states.
const (
	LinkOff      PowerState = iota // lanes powered down (deep package states)
	LinkLowPower                   // fast-wake standby (ALPM)
	LinkOn                         // transmitting
)

var linkStateNames = [...]string{"off", "low-power", "on"}

// String names the link power state.
func (s PowerState) String() string {
	if s < 0 || int(s) >= len(linkStateNames) {
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
	return linkStateNames[s]
}

// Link is an eDP main-link instance with traffic accounting.
type Link struct {
	cfg   LinkConfig
	mode  Mode
	rate  units.DataRate // effective rate in PixelPaced mode
	state PowerState

	moved    units.ByteSize
	sideband []SidebandMsg
}

// NewLink builds a link in PixelPaced mode at the given pixel rate.
func NewLink(cfg LinkConfig, pixelRate units.DataRate) *Link {
	return &Link{cfg: cfg, mode: PixelPaced, rate: pixelRate, state: LinkOn}
}

// Mode returns the current pacing mode.
func (l *Link) Mode() Mode { return l.mode }

// SetState changes the electrical power state.
func (l *Link) SetState(s PowerState) { l.state = s }

// SetMode switches pacing mode. Entering Burst requires the PMU firmware
// grant (§4.4 change 3); callers model that by only switching when granted.
func (l *Link) SetMode(m Mode) { l.mode = m }

// EffectiveRate returns the payload rate the link currently moves data at.
// In PixelPaced mode the pixel rate is additionally capped by the link's
// physical maximum.
func (l *Link) EffectiveRate() units.DataRate {
	max := l.cfg.MaxBandwidth()
	if l.mode == Burst {
		return max
	}
	if l.rate > max {
		return max
	}
	return l.rate
}

// Transfer moves n bytes over the main link and returns the duration.
// Transferring on a link that is not on panics — a scheduling bug.
func (l *Link) Transfer(n units.ByteSize) time.Duration {
	if l.state != LinkOn {
		panic("edp: transfer on link in state " + l.state.String())
	}
	l.moved += n
	return l.EffectiveRate().TimeFor(n)
}
