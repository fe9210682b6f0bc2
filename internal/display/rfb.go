package display

import "burstlink/internal/units"

// RFB is the conventional single remote frame buffer that PSR panels
// embed in the T-con (§2.3). It holds exactly one frame. Because there is
// only one bank, writing a new frame while the pixel formatter scans the
// buffer tears the image — which is why conventional systems pace frame
// delivery to the panel's pixel-update rate instead of bursting.
type RFB struct {
	capacity units.ByteSize
	frame    Frame
	valid    bool
	scanning bool
	tears    int
}

// NewRFB builds a single-bank remote frame buffer.
func NewRFB(capacity units.ByteSize) *RFB {
	return &RFB{capacity: capacity}
}

// Banks implements FrameStore.
func (r *RFB) Banks() int { return 1 }

// Capacity implements FrameStore.
func (r *RFB) Capacity() units.ByteSize { return r.capacity }

// Write implements FrameStore. A write during scan-out succeeds (hardware
// does not block it) but records a tear.
func (r *RFB) Write(f Frame) error {
	if f.Size() > r.capacity {
		return errFrameTooLarge(f.Size(), r.capacity)
	}
	if r.scanning {
		r.tears++
	}
	r.frame = f
	r.valid = true
	return nil
}

// Visible implements FrameStore.
func (r *RFB) Visible() (Frame, bool) { return r.frame, r.valid }

// Flip implements FrameStore; on a single bank it is a no-op because
// writes are immediately visible.
func (r *RFB) Flip() error { return nil }

// BeginScan implements FrameStore.
func (r *RFB) BeginScan() { r.scanning = true }

// EndScan implements FrameStore.
func (r *RFB) EndScan() { r.scanning = false }

// Tears implements FrameStore.
func (r *RFB) Tears() int { return r.tears }

// DRFB is BurstLink's double remote frame buffer (§4.1): two banks so the
// link can deposit a new frame at full burst bandwidth into one bank while
// the pixel formatter refreshes the panel from the other. The paper notes
// the DRFB's DRAM mounts on a flexible PCB off-panel and adds ~58 mW and
// ~32.5 cents to the panel BOM (§4.4).
type DRFB struct {
	capacity units.ByteSize
	banks    [2]Frame
	valid    [2]bool
	scanIdx  int // bank the PF refreshes from
	writeIdx int // bank the link writes into
	pending  bool
	scanning bool
	tears    int
	flips    int
}

// NewDRFB builds a double remote frame buffer.
func NewDRFB(capacity units.ByteSize) *DRFB {
	return &DRFB{capacity: capacity, scanIdx: 0, writeIdx: 1}
}

// Banks implements FrameStore.
func (d *DRFB) Banks() int { return 2 }

// Capacity implements FrameStore.
func (d *DRFB) Capacity() units.ByteSize { return d.capacity }

// Write implements FrameStore. Writes go to the back bank, so they are
// always safe with respect to the ongoing scan — the property that
// decouples frame transfer from pixel update (§4.2).
func (d *DRFB) Write(f Frame) error {
	if f.Size() > d.capacity {
		return errFrameTooLarge(f.Size(), d.capacity)
	}
	if d.writeIdx == d.scanIdx && d.scanning {
		// Unreachable under the flip discipline, but guarded: a model
		// that breaks the discipline must see the tear.
		d.tears++
	}
	d.banks[d.writeIdx] = f
	d.valid[d.writeIdx] = true
	d.pending = true
	return nil
}

// Visible implements FrameStore.
func (d *DRFB) Visible() (Frame, bool) { return d.banks[d.scanIdx], d.valid[d.scanIdx] }

// Flip implements FrameStore: publishes the back bank. The T-con defers
// the actual swap to the next vblank boundary; the model performs it
// immediately but never mid-scan (callers flip between EndScan and
// BeginScan, enforced by the panel).
func (d *DRFB) Flip() error {
	if !d.pending {
		return nil // nothing new to publish
	}
	d.scanIdx, d.writeIdx = d.writeIdx, d.scanIdx
	d.pending = false
	d.flips++
	return nil
}

// BeginScan implements FrameStore.
func (d *DRFB) BeginScan() { d.scanning = true }

// EndScan implements FrameStore.
func (d *DRFB) EndScan() { d.scanning = false }

// Tears implements FrameStore.
func (d *DRFB) Tears() int { return d.tears }
