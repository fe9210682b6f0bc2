package dram

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"burstlink/internal/units"
)

// The accessors below are test-only: no simulator frees a buffer or
// resets a device, so only these tests drive them.

// ResetTraffic zeroes the traffic counters (between experiment runs).
func (d *Device) ResetTraffic() { d.reads, d.writes = 0, 0 }

// Free releases a buffer. Double-free is an error.
func (d *Device) Free(b *Buffer) error {
	if b == nil || b.freed {
		return fmt.Errorf("dram: free: buffer already freed or nil")
	}
	b.freed = true
	d.alloc.used -= b.Size
	return nil
}

// Used returns the currently allocated byte count.
func (d *Device) Used() units.ByteSize { return d.alloc.used }

// Front returns the buffer currently scanned out.
func (db *DoubleBuffer) Front() *Buffer { return db.front }

// Back returns the buffer currently written by the producer.
func (db *DoubleBuffer) Back() *Buffer { return db.back }

// Swaps returns how many frames have been published.
func (db *DoubleBuffer) Swaps() int { return db.swaps }

func TestDefaultConfigSanity(t *testing.T) {
	cfg := DefaultLPDDR3()
	if cfg.Capacity != 8*units.GiB {
		t.Fatalf("capacity = %v, want 8 GiB (Table 3)", cfg.Capacity)
	}
}

func TestOperatingPowerLinearInBandwidth(t *testing.T) {
	cfg := DefaultLPDDR3()
	p1 := cfg.OperatingPower(units.GBps(1), 0)
	if math.Abs(float64(p1-cfg.ReadPowerPerGBps)) > 1e-9 {
		t.Fatalf("1 GB/s read = %v, want %v", p1, cfg.ReadPowerPerGBps)
	}
	p2 := cfg.OperatingPower(units.GBps(2), units.GBps(3))
	want := 2*float64(cfg.ReadPowerPerGBps) + 3*float64(cfg.WritePowerPerGBps)
	if math.Abs(float64(p2)-want) > 1e-9 {
		t.Fatalf("mixed = %v, want %v", p2, want)
	}
}

func TestOperatingPowerAdditive(t *testing.T) {
	cfg := DefaultLPDDR3()
	f := func(r1, r2, w1, w2 uint16) bool {
		a := cfg.OperatingPower(units.DataRate(r1)*units.Mbps, units.DataRate(w1)*units.Mbps)
		b := cfg.OperatingPower(units.DataRate(r2)*units.Mbps, units.DataRate(w2)*units.Mbps)
		both := cfg.OperatingPower(units.DataRate(int(r1)+int(r2))*units.Mbps, units.DataRate(int(w1)+int(w2))*units.Mbps)
		return math.Abs(float64(a+b-both)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteAccounting(t *testing.T) {
	d := NewDevice(DefaultLPDDR3())
	dur := d.Read(149 * units.MB)
	// 149 MB at 14.9 GB/s = 10 ms.
	if dur < 9900*time.Microsecond || dur > 10100*time.Microsecond {
		t.Fatalf("read duration = %v, want ~10ms", dur)
	}
	d.Write(50 * units.MB)
	r, w := d.Traffic()
	if r != 149*units.MB || w != 50*units.MB {
		t.Fatalf("traffic = %v/%v", r, w)
	}
	d.ResetTraffic()
	r, w = d.Traffic()
	if r != 0 || w != 0 {
		t.Fatal("reset did not clear traffic")
	}
}

func TestAllocate(t *testing.T) {
	d := NewDevice(DefaultLPDDR3())
	fb, err := d.Allocate("video.fb", units.R4K.FrameSize(24))
	if err != nil {
		t.Fatal(err)
	}
	if fb.Size != units.R4K.FrameSize(24) || fb.Name != "video.fb" {
		t.Fatalf("buffer = %+v", fb)
	}
	if d.Used() != fb.Size {
		t.Fatalf("used = %v", d.Used())
	}
	if err := d.Free(fb); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Fatal("free did not reclaim")
	}
	if err := d.Free(fb); err == nil {
		t.Fatal("double free should error")
	}
}

func TestAllocateErrors(t *testing.T) {
	d := NewDevice(Config{Capacity: units.MB})
	if _, err := d.Allocate("big", 2*units.MB); err == nil {
		t.Fatal("over-capacity allocation should fail")
	}
	if _, err := d.Allocate("zero", 0); err == nil {
		t.Fatal("zero-size allocation should fail")
	}
}

func TestAllocateOffsetsDisjoint(t *testing.T) {
	d := NewDevice(DefaultLPDDR3())
	a, _ := d.Allocate("a", units.MB)
	b, _ := d.Allocate("b", units.MB)
	if a.Offset+a.Size > b.Offset {
		t.Fatalf("allocations overlap: a=%+v b=%+v", a, b)
	}
}

func TestDoubleBufferSwap(t *testing.T) {
	d := NewDevice(DefaultLPDDR3())
	db, err := NewDoubleBuffer(d, "video", units.FHD.FrameSize(24))
	if err != nil {
		t.Fatal(err)
	}
	f0, b0 := db.Front(), db.Back()
	if f0 == b0 {
		t.Fatal("front and back must be distinct")
	}
	db.Swap()
	if db.Front() != b0 || db.Back() != f0 {
		t.Fatal("swap did not exchange buffers")
	}
	if db.Swaps() != 1 {
		t.Fatalf("swaps = %d", db.Swaps())
	}
	// Two frame buffers allocated.
	if d.Used() != 2*units.FHD.FrameSize(24) {
		t.Fatalf("used = %v", d.Used())
	}
}

func TestDoubleBufferAllocFailure(t *testing.T) {
	d := NewDevice(Config{Capacity: units.FHD.FrameSize(24)}) // room for one only
	if _, err := NewDoubleBuffer(d, "video", units.FHD.FrameSize(24)); err == nil {
		t.Fatal("expected allocation failure for second buffer")
	}
}
