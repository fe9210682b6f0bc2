// Package soc models the system-on-chip power-management architecture the
// paper builds on (§2.1–2.2): the IP components of a Skylake-class mobile
// SoC, their component-level idle states, the package C-states of Table 1,
// the rules for resolving a package state from component states, and the
// power-management unit (PMU) with the firmware hooks that BurstLink
// extends (§4.4).
package soc

import (
	"fmt"
	"time"
)

// PackageCState is an SoC-level idle power state (Table 1). Deeper states
// have larger ordinal values. C7Prime is the paper's C7′ — C7 with the
// video decoder clock-gated while the DC drains its buffer to the panel
// (§4.1, Fig 6).
type PackageCState int

// Package C-states in increasing depth.
const (
	C0      PackageCState = iota // one or more cores/graphics executing
	C2                           // cores in CC3+, graphics in RC6, DRAM active
	C3                           // LLC may be off, DRAM in self-refresh, most clocks gated
	C6                           // cores power-gated, clock generators off
	C7                           // C6 + some IO/memory domains power-gated
	C7Prime                      // C7 with the VD clock-gated (BurstLink, §4.1)
	C8                           // only DC and display IO on
	C9                           // all IPs off, most VR voltages reduced, panel may self-refresh
	C10                          // all SoC VRs off except always-on; panel off
)

var cstateNames = [...]string{"C0", "C2", "C3", "C6", "C7", "C7'", "C8", "C9", "C10"}

// String returns the conventional name, e.g. "C8" or "C7'".
func (c PackageCState) String() string {
	if c < 0 || int(c) >= len(cstateNames) {
		return fmt.Sprintf("C?(%d)", int(c))
	}
	return cstateNames[c]
}

// DeeperThan reports whether c is a deeper (lower-power) state than o.
func (c PackageCState) DeeperThan(o PackageCState) bool { return c > o }

// Latency bundles the entry and exit latency of a package C-state. The
// paper's power model charges P_en·Lat_en + P_ex·Lat_ex per transition
// (§5.2); latencies follow published Skylake measurements (Schöne et al.,
// "Wake-up latencies for processor idle states").
type Latency struct {
	Enter, Exit time.Duration
}

// Latencies returns the entry/exit latency table used by the power model.
func Latencies() map[PackageCState]Latency {
	return map[PackageCState]Latency{
		C0:      {0, 0},
		C2:      {1 * time.Microsecond, 1 * time.Microsecond},
		C3:      {20 * time.Microsecond, 30 * time.Microsecond},
		C6:      {60 * time.Microsecond, 85 * time.Microsecond},
		C7:      {80 * time.Microsecond, 110 * time.Microsecond},
		C7Prime: {5 * time.Microsecond, 5 * time.Microsecond}, // clock gate only
		C8:      {150 * time.Microsecond, 190 * time.Microsecond},
		C9:      {300 * time.Microsecond, 390 * time.Microsecond},
		C10:     {800 * time.Microsecond, 1000 * time.Microsecond},
	}
}
