package display

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"burstlink/internal/sim"
	"burstlink/internal/units"
)

func vblankSetup(double bool) (*sim.Engine, *Panel, *VblankDriver) {
	eng := &sim.Engine{}
	panel := NewPanel(Config{Resolution: units.Resolution{Width: 64, Height: 32}, BPP: 24, Refresh: 60, DoubleRFB: double})
	panel.ReceiveFrame(Frame{Seq: 0})
	panel.Store().Flip()
	return eng, panel, NewVblankDriver(eng, panel)
}

func TestVblankCadence(t *testing.T) {
	eng, _, d := vblankSetup(true)
	d.RunFor(time.Second)
	// 60 Hz for one second: 60 scans.
	if d.Scans() != 60 {
		t.Fatalf("scans = %d, want 60", d.Scans())
	}
	if eng.Now() != time.Second {
		t.Fatalf("clock = %v", eng.Now())
	}
}

func TestVblankRandomBurstArrivalsNeverTearOnDRFB(t *testing.T) {
	// Property: frames bursting in at arbitrary instants — mid-scan or
	// not — never tear on a DRFB panel and always display in order.
	rng := rand.New(rand.NewSource(7))
	_, panel, d := vblankSetup(true)
	var displayed []int
	d.OnVblank(func(seq int) { displayed = append(displayed, seq) })

	window := units.RefreshRate(60).Window()
	for i := 1; i <= 100; i++ {
		// Advance a random fraction of a window, then deliver.
		d.RunFor(time.Duration(rng.Int63n(int64(window))))
		if err := d.DeliverMidScan(Frame{Seq: i}); err != nil {
			t.Fatal(err)
		}
		// Let at least one vblank pass so the flip publishes.
		d.RunFor(window)
	}
	if panel.Stats().Tears != 0 {
		t.Fatalf("tears = %d on DRFB", panel.Stats().Tears)
	}
	for i := 1; i < len(displayed); i++ {
		if displayed[i] < displayed[i-1] {
			t.Fatalf("display order regressed: %v", displayed[i-1:i+1])
		}
	}
	if panel.Stats().UniqueFrames < 90 {
		t.Fatalf("unique frames = %d, want ~100", panel.Stats().UniqueFrames)
	}
}

func TestVblankMidScanTearsOnSingleRFB(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, panel, d := vblankSetup(false)
	window := units.RefreshRate(60).Window()
	for i := 1; i <= 50; i++ {
		// Deliver strictly mid-scan (never at a vblank instant).
		d.RunFor(time.Duration(rng.Int63n(int64(window)-2) + 1))
		if err := d.DeliverMidScan(Frame{Seq: i}); err != nil {
			t.Fatal(err)
		}
		d.RunFor(window)
	}
	if panel.Stats().Tears == 0 {
		t.Fatal("mid-scan deliveries on a single RFB must tear")
	}
}

func TestVblankStop(t *testing.T) {
	_, _, d := vblankSetup(true)
	d.RunFor(100 * time.Millisecond)
	n := d.Scans()
	d.Stop()
	d.RunFor(100 * time.Millisecond)
	if d.Scans() != n {
		t.Fatal("scans continued after Stop")
	}
	if err := d.DeliverMidScan(Frame{Seq: 99}); err == nil {
		t.Fatal("delivery after stop should fail")
	}
}

// The VBlank driver below is test-only: no binary, figure or benchmark
// schedules panel refreshes on the event queue, and these tests are its
// only callers.

// VblankDriver ties a panel's refresh cadence to the simulation clock:
// it schedules one scan-out per refresh window and performs DRFB flips
// only at vblank boundaries (between scans), which is the hardware
// discipline that makes BurstLink's mid-scan bursts safe. Frames written
// during a scan wait in the back bank until the next vblank.
type VblankDriver struct {
	eng   *sim.Engine
	panel *Panel

	scans    int
	stopped  bool
	onVblank func(seq int)
}

// NewVblankDriver builds a driver and schedules the first vblank one
// window from now.
func NewVblankDriver(eng *sim.Engine, panel *Panel) *VblankDriver {
	d := &VblankDriver{eng: eng, panel: panel}
	d.schedule()
	return d
}

// OnVblank registers a callback invoked after each scan with the
// displayed frame's sequence number.
func (d *VblankDriver) OnVblank(fn func(seq int)) { d.onVblank = fn }

// Scans returns the number of completed scan-outs.
func (d *VblankDriver) Scans() int { return d.scans }

// Stop halts the refresh cadence after the current window.
func (d *VblankDriver) Stop() { d.stopped = true }

func (d *VblankDriver) schedule() {
	window := d.panel.cfg.Refresh.Window()
	if window <= 0 {
		return
	}
	d.eng.Schedule(window, "vblank", func() {
		if d.stopped {
			return
		}
		// Vblank: publish any pending back-bank frame, then scan.
		if err := d.panel.Store().Flip(); err == nil {
			if shown, err := d.panel.Refresh(); err == nil {
				d.scans++
				if d.onVblank != nil {
					d.onVblank(shown.Seq)
				}
			}
		}
		d.schedule()
	})
}

// DeliverMidScan models a burst landing at an arbitrary point of the
// refresh cycle: the frame is written immediately (into the back bank on
// a DRFB panel) and becomes visible at the next vblank. On a single-RFB
// panel a delivery during an active scan tears, which the panel records.
func (d *VblankDriver) DeliverMidScan(f Frame) error {
	if d.stopped {
		return fmt.Errorf("display: driver stopped")
	}
	// Mark the store as mid-scan for the tear check: deliveries are
	// asynchronous to the scan in real hardware; we approximate by
	// treating any delivery not aligned to a vblank instant as mid-scan.
	window := d.panel.cfg.Refresh.Window()
	inScan := d.eng.Now()%window != 0
	if inScan {
		d.panel.Store().BeginScan()
	}
	err := d.panel.ReceiveFrame(f)
	if inScan {
		d.panel.Store().EndScan()
	}
	return err
}

// RunFor advances the simulation by the given duration.
func (d *VblankDriver) RunFor(dur time.Duration) {
	d.eng.RunUntil(d.eng.Now() + dur)
}
