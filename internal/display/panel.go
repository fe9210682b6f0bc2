package display

import (
	"fmt"

	"burstlink/internal/edp"
	"burstlink/internal/units"
)

// PSRState is the panel's self-refresh protocol state (§2.3).
type PSRState int

// PSR protocol states.
const (
	// PSRInactive: the host drives every refresh over the main link.
	PSRInactive PSRState = iota
	// PSRActive: the panel self-refreshes from its frame store; the host
	// link may power down.
	PSRActive
	// PSRActiveSU: self-refreshing but accepting PSR2 selective updates.
	PSRActiveSU
)

var psrStateNames = [...]string{"inactive", "active", "active-su"}

// String names the PSR state.
func (s PSRState) String() string {
	if s < 0 || int(s) >= len(psrStateNames) {
		return fmt.Sprintf("PSRState(%d)", int(s))
	}
	return psrStateNames[s]
}

// Config describes a panel.
type Config struct {
	Resolution units.Resolution
	BPP        int // bits per pixel, 24 throughout the paper
	Refresh    units.RefreshRate
	// DoubleRFB selects BurstLink's DRFB instead of the single PSR RFB.
	DoubleRFB bool
}

// FrameSize returns the panel's native frame size.
func (c Config) FrameSize() units.ByteSize { return c.Resolution.FrameSize(c.BPP) }

// Panel is a display panel: T-con (frame store + PSR machine), pixel
// formatter, and LCD scan-out statistics.
type Panel struct {
	cfg   Config
	store FrameStore
	psr   PSRState

	refreshes    int // total scan passes
	selfRefresh  int // scan passes served from the store under PSR
	uniqueFrames int // distinct frame sequence numbers displayed
	lastSeq      int
	seqRegress   int // frames displayed out of order (model bug indicator)
	suBytes      units.ByteSize
}

// NewPanel builds a panel with the appropriate frame store.
func NewPanel(cfg Config) *Panel {
	var store FrameStore
	if cfg.DoubleRFB {
		store = NewDRFB(cfg.FrameSize())
	} else {
		store = NewRFB(cfg.FrameSize())
	}
	return &Panel{cfg: cfg, store: store, lastSeq: -1}
}

// Store exposes the frame store for inspection.
func (p *Panel) Store() FrameStore { return p.store }

// HandleSideband processes one AUX-channel message (from
// edp.Link.DrainSideband). Invalid transitions return an error.
func (p *Panel) HandleSideband(m edp.SidebandMsg) error {
	switch m.Kind {
	case edp.PSREnter:
		if _, ok := p.store.Visible(); !ok {
			return fmt.Errorf("display: PSR_ENTER with no frame in the RFB")
		}
		p.psr = PSRActive
	case edp.PSRExit:
		p.psr = PSRInactive
	case edp.PSR2Update:
		if p.psr == PSRInactive {
			return fmt.Errorf("display: PSR2_UPDATE while PSR inactive")
		}
		p.psr = PSRActiveSU
	case edp.FrameReady:
		if err := p.store.Flip(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("display: unknown sideband message %v", m.Kind)
	}
	return nil
}

// ReceiveFrame stores a frame arriving over the main link into the frame
// store (❼ in Fig 2 for conventional panels; the DRFB back bank for
// BurstLink panels).
func (p *Panel) ReceiveFrame(f Frame) error {
	if f.Size() > 0 && f.Size() != p.cfg.FrameSize() {
		return fmt.Errorf("display: frame size %v does not match panel %v", f.Size(), p.cfg.FrameSize())
	}
	return p.store.Write(f)
}

// SelectiveUpdate applies a PSR2 partial update to the visible frame: the
// region's pixels are replaced without retransmitting the full frame
// (§2.3, used by BurstLink's windowed-video mode, §4.1). data, when
// non-nil, must contain region.W*region.H pixels in row-major order.
func (p *Panel) SelectiveUpdate(region edp.Rect, data []byte, seq int) error {
	if p.psr != PSRActiveSU {
		return fmt.Errorf("display: selective update in PSR state %v", p.psr)
	}
	if region.Empty() {
		return fmt.Errorf("display: empty update region")
	}
	res := p.cfg.Resolution
	if region.X < 0 || region.Y < 0 || region.X+region.W > res.Width || region.Y+region.H > res.Height {
		return fmt.Errorf("display: region %+v outside panel %v", region, res)
	}
	vis, ok := p.store.Visible()
	if !ok {
		return fmt.Errorf("display: selective update with empty store")
	}
	pxBytes := p.cfg.BPP / 8
	updSize := units.ByteSize(region.Pixels() * pxBytes)
	next := Frame{Seq: seq, Data: append([]byte(nil), vis.Data...)}
	if data != nil {
		if len(data) != int(updSize) {
			return fmt.Errorf("display: update payload %d bytes, want %v", len(data), updSize)
		}
		if len(next.Data) > 0 {
			for row := 0; row < region.H; row++ {
				dst := ((region.Y+row)*res.Width + region.X) * pxBytes
				src := row * region.W * pxBytes
				copy(next.Data[dst:dst+region.W*pxBytes], data[src:src+region.W*pxBytes])
			}
		}
	}
	p.suBytes += updSize
	if err := p.store.Write(next); err != nil {
		return err
	}
	// On a DRFB the update lands in the back bank and publishes on the
	// next vblank; a single RFB makes writes immediately visible and
	// Flip is a no-op.
	return p.store.Flip()
}

// Refresh performs one scan pass: the pixel formatter pulls the visible
// frame and drives the LCD. hostDriven marks whether the pass consumed
// link data (conventional streaming) or served from the store (PSR /
// BurstLink). It returns the displayed frame.
func (p *Panel) Refresh() (Frame, error) {
	p.store.BeginScan()
	f, ok := p.store.Visible()
	p.store.EndScan()
	if !ok {
		return Frame{}, fmt.Errorf("display: refresh with no frame available")
	}
	p.refreshes++
	if p.psr != PSRInactive {
		p.selfRefresh++
	}
	if f.Seq != p.lastSeq {
		if f.Seq < p.lastSeq {
			p.seqRegress++
		}
		p.uniqueFrames++
		p.lastSeq = f.Seq
	}
	return f, nil
}

// Stats summarizes panel activity.
type Stats struct {
	Refreshes    int
	SelfRefresh  int
	UniqueFrames int
	SeqRegress   int
	Tears        int
	SUBytes      units.ByteSize
}

// Stats returns the accumulated counters.
func (p *Panel) Stats() Stats {
	return Stats{
		Refreshes:    p.refreshes,
		SelfRefresh:  p.selfRefresh,
		UniqueFrames: p.uniqueFrames,
		SeqRegress:   p.seqRegress,
		Tears:        p.store.Tears(),
		SUBytes:      p.suBytes,
	}
}
