// Package session orchestrates a complete video streaming session end to
// end: encoded frames arrive over a modeled network into the DRAM jitter
// buffer (§2.4's buffering stage), the chosen display scheme plays them
// back period by period, and the analytical power model prices the whole
// run — producing the user-facing numbers (stalls, average power, energy,
// battery life) a downstream adopter of this library would ask for.
package session

import (
	"fmt"
	"strings"
	"time"

	"burstlink/internal/core"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/stream"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

// Scheme selects the display datapath.
type Scheme int

// Display schemes.
const (
	Conventional Scheme = iota
	BurstOnly
	BypassOnly
	BurstLink
)

var schemeNames = [...]string{"conventional", "burst-only", "bypass-only", "burstlink"}

// String names the scheme.
func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// Schemes returns every display scheme in declaration order — the order
// Compare reports results in.
func Schemes() []Scheme {
	return []Scheme{Conventional, BurstOnly, BypassOnly, BurstLink}
}

// ParseScheme maps a canonical scheme name (as produced by
// Scheme.String) back to its value. The service API uses it to accept
// schemes by name over the wire.
func ParseScheme(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if n == name {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("session: unknown scheme %q (have %s)", name, strings.Join(schemeNames[:], ", "))
}

// scheduler returns the per-period timeline generator.
func (s Scheme) scheduler() func(pipeline.Platform, pipeline.Scenario) (trace.Timeline, error) {
	switch s {
	case BurstOnly:
		return core.BurstOnly
	case BypassOnly:
		return core.BypassOnly
	case BurstLink:
		return core.BurstLink
	default:
		return pipeline.Conventional
	}
}

// Config describes a session.
type Config struct {
	Scenario pipeline.Scenario
	Scheme   Scheme
	// Seconds of playback.
	Seconds int
	// Bitrate of the encoded stream; 0 derives it from the platform's
	// encoded-frame model.
	Bitrate units.DataRate
	// PrebufferFrames is the startup buffer depth (default: one second).
	PrebufferFrames int
	// Battery prices the session in battery life; zero value uses the
	// evaluated tablet's battery.
	Battery workload.Battery
}

// Result reports the session outcome.
type Result struct {
	Scheme   Scheme
	Frames   int
	Stalls   int
	Buffer   stream.Stats
	AvgPower units.Power
	Energy   units.Energy
	// BatteryLife is the runtime the battery would sustain at AvgPower.
	BatteryLife time.Duration
	// DRAMRead/DRAMWrite are per-second-of-playback traffic.
	DRAMRead, DRAMWrite units.ByteSize
}

// Compare runs the same session under every scheme and returns the
// results in scheme order.
func Compare(p pipeline.Platform, m power.Model, cfg Config) ([]Result, error) {
	return Engine{P: p, M: m}.Compare(cfg)
}
