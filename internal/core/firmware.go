package core

import (
	"burstlink/internal/soc"
)

// Firmware is BurstLink's PMU firmware extension (§4.4: "a few tens of
// lines" of Pcode). It implements the three changes:
//
//  1. Allow the package to enter C9 while Frame Buffer Bypassing is
//     enabled and the current frame sits fully in the panel's DRFB.
//  2. Wake the VD (back to C7) when the DC buffer drains, via the
//     empty/wakeup signals of Fig 5.
//  3. Grant the DC the maximum eDP bandwidth when Frame Bursting is
//     active.
type Firmware struct {
	// BypassEnabled reports whether the destination selector currently
	// routes decoded frames to the DC.
	BypassEnabled func() bool
	// FrameInDRFB reports whether the displayed frame resides fully in
	// the panel's DRFB (so no host component is needed until the next
	// frame).
	FrameInDRFB func() bool
	// WakeVD is invoked when the DC signals its buffer is empty.
	WakeVD func()
	// BurstActive gates the maximum-bandwidth grant.
	BurstActive bool
}

// Name implements soc.Firmware.
func (f *Firmware) Name() string { return "burstlink-pcode" }

// Clamp implements soc.Firmware: change 1. Unlike the stock policy —
// which never enters C9 while the panel still needs host-side delivery —
// BurstLink permits C9 as soon as the frame is in the DRFB.
func (f *Firmware) Clamp(resolved soc.PackageCState) soc.PackageCState {
	if resolved >= soc.C9 {
		if f.FrameInDRFB != nil && f.FrameInDRFB() {
			return resolved
		}
		return soc.C8
	}
	return resolved
}

// GrantMaxBandwidth implements change 3: whether the DC may drive the eDP
// at maximum bandwidth. Bursting requires bypass-or-single-plane routing
// to be meaningful, but the grant itself only depends on the feature flag.
func (f *Firmware) GrantMaxBandwidth() bool { return f.BurstActive }
