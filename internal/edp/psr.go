package edp

import "fmt"

// SidebandKind identifies a PSR protocol message carried on the AUX
// channel (§2.3: "a protocol in which the DC notifies the display panel of
// an unchanged image").
type SidebandKind int

// PSR sideband message kinds.
const (
	// PSREnter tells the T-con the image is static: self-refresh from the
	// RFB and let the host power down the link.
	PSREnter SidebandKind = iota
	// PSRExit resumes host-driven refresh.
	PSRExit
	// PSR2Update precedes a selective update of a dirty rectangle while
	// in PSR (eDP 1.4 PSR2, §2.3).
	PSR2Update
	// FrameReady announces a complete frame has landed in the (D)RFB and
	// may be flipped to scan-out (BurstLink DRFB protocol, §4.2).
	FrameReady
)

var sidebandNames = [...]string{"PSR_ENTER", "PSR_EXIT", "PSR2_UPDATE", "FRAME_READY"}

// String names the message kind.
func (k SidebandKind) String() string {
	if k < 0 || int(k) >= len(sidebandNames) {
		return fmt.Sprintf("SidebandKind(%d)", int(k))
	}
	return sidebandNames[k]
}

// Rect is a dirty rectangle in panel coordinates for PSR2 selective
// updates.
type Rect struct {
	X, Y, W, H int
}

// Pixels returns the rectangle's pixel count.
func (r Rect) Pixels() int { return r.W * r.H }

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// SidebandMsg is one AUX-channel protocol message.
type SidebandMsg struct {
	Kind SidebandKind
	// Region is the dirty rectangle for PSR2Update; zero otherwise.
	Region Rect
	// Slot selects the DRFB bank for FrameReady in BurstLink panels.
	Slot int
}

// SendSideband queues a sideband message on the link. AUX messages are
// tiny and effectively instantaneous at the timescales modeled, so no
// duration is returned. Panels drain the queue with DrainSideband.
func (l *Link) SendSideband(m SidebandMsg) {
	if l.state == LinkOff {
		panic("edp: sideband on powered-down link")
	}
	l.sideband = append(l.sideband, m)
}

// DrainSideband returns and clears all queued sideband messages in order.
func (l *Link) DrainSideband() []SidebandMsg {
	out := l.sideband
	l.sideband = nil
	return out
}
