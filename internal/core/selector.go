package core

import (
	"burstlink/internal/interconnect"
)

// Destination is where the video decoder (or GPU) routes its output.
type Destination int

// Destinations of decoded frames (§4.4, Fig 5).
const (
	// DestDRAM is the conventional path: decoded frames go to the DRAM
	// frame buffer.
	DestDRAM Destination = iota
	// DestDC is the bypass path: decoded frames go peer-to-peer to the
	// display controller buffer.
	DestDC
)

// String names the destination.
func (d Destination) String() string {
	if d == DestDC {
		return "dc"
	}
	return "dram"
}

// CSR register names the selector reads, mirroring §4.4: the VD tracks
// concurrently running video applications in its CSRs; the DC exposes the
// plane configuration (SR02/GRX-class registers).
const (
	RegVideoApps      = "video_apps"       // VD: count of running video apps
	RegSingleVideo    = "single_video"     // VD: derived flag
	RegActivePlanes   = "active_planes"    // DC: number of planes to compose
	RegVideoPlaneOnly = "video_plane_only" // DC: derived signal
)

// DestinationSelector implements §4.4's destination selector: it routes
// VD/GPU output to the DC only when exactly one video application runs
// (VD CSR) and only the video plane is displayed (DC CSR). Any fallback
// condition — a second video application, a graphics plane appearing —
// reverts to the conventional DRAM path.
type DestinationSelector struct {
	vd, dc *interconnect.CSRFile
}

// NewDestinationSelector wires the selector to the VD and DC register
// banks.
func NewDestinationSelector(vd, dc *interconnect.CSRFile) *DestinationSelector {
	return &DestinationSelector{vd: vd, dc: dc}
}

// SetVideoApps records the number of concurrently running video
// applications (driver API injections, §4.4).
func (s *DestinationSelector) SetVideoApps(n int) {
	s.vd.Write(RegVideoApps, uint64(n))
	s.vd.SetFlag(RegSingleVideo, n == 1)
}

// SetPlanes records the DC plane configuration: total plane count and
// whether the single plane is the video plane.
func (s *DestinationSelector) SetPlanes(total int, videoOnly bool) {
	s.dc.Write(RegActivePlanes, uint64(total))
	s.dc.SetFlag(RegVideoPlaneOnly, total == 1 && videoOnly)
}

// Destination resolves the current routing decision.
func (s *DestinationSelector) Destination() Destination {
	if s.vd.Flag(RegSingleVideo) && s.dc.Flag(RegVideoPlaneOnly) {
		return DestDC
	}
	return DestDRAM
}
