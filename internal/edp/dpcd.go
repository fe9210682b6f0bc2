package edp

import "burstlink/internal/units"

// Capabilities is the panel's DPCD-style capability set, which the host
// reads over the AUX channel at link bring-up. BurstLink's driver checks
// these before enabling its mechanisms: Frame Bursting needs a DRFB sink
// (§4.1) and windowed mode needs PSR2 selective updates (eDP 1.4, §2.3).
// Its caller is core.Negotiate.
type Capabilities struct {
	// PSR and PSR2 report the self-refresh protocol generations.
	PSR, PSR2 bool
	// DRFB reports a double remote frame buffer behind the receiver.
	DRFB bool
	// MaxLinkRate is the panel-supported payload ceiling; the host
	// clamps its burst bandwidth to min(host, panel).
	MaxLinkRate units.DataRate
}

// ConventionalPanelCaps returns a stock PSR panel on an eDP 1.3 link
// (4 × HBR2 5.4 Gbps).
func ConventionalPanelCaps() Capabilities {
	edp13 := LinkConfig{Lanes: 4, LaneRate: 5.4 * units.Gbps, CodingRatio: 0.8}
	return Capabilities{PSR: true, MaxLinkRate: edp13.MaxBandwidth()}
}

// BurstLinkPanelCaps returns a BurstLink-enabled panel: PSR2 + DRFB on an
// eDP 1.4 link.
func BurstLinkPanelCaps() Capabilities {
	return Capabilities{PSR: true, PSR2: true, DRFB: true, MaxLinkRate: EDP14().MaxBandwidth()}
}

// SupportsBursting reports whether Frame Bursting can be enabled against
// this panel.
func (c Capabilities) SupportsBursting() bool { return c.DRFB }

// SupportsWindowed reports whether the §4.1 windowed-video mode can be
// enabled (needs PSR2 selective updates).
func (c Capabilities) SupportsWindowed() bool { return c.PSR2 && c.DRFB }

// NegotiatedBurstRate returns the burst bandwidth a host with the given
// link config can use against this panel: the slower of the two ends, and
// zero if the panel cannot sink bursts at all.
func (c Capabilities) NegotiatedBurstRate(host LinkConfig) units.DataRate {
	if !c.SupportsBursting() {
		return 0
	}
	hostMax := host.MaxBandwidth()
	if c.MaxLinkRate < hostMax {
		return c.MaxLinkRate
	}
	return hostMax
}
