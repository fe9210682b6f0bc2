package dram

import (
	"fmt"

	"burstlink/internal/units"
)

// Buffer is a named allocation in DRAM, e.g. a plane's frame buffer or the
// encoded-stream staging buffer (❶/❸ in Fig 2).
type Buffer struct {
	Name string
	Size units.ByteSize
	// Offset is the byte offset of the allocation inside the device; the
	// simulator uses it only for identity and accounting.
	Offset units.ByteSize

	freed bool
}

// allocator is a trivial bump allocator with free-list-less accounting:
// buffers are few (a handful of planes) and long-lived, so fragmentation
// handling would be dead weight.
type allocator struct {
	capacity units.ByteSize
	used     units.ByteSize
	next     units.ByteSize
	buffers  []*Buffer
}

// Allocate reserves a buffer of the given size in DRAM.
func (d *Device) Allocate(name string, size units.ByteSize) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dram: allocate %q: non-positive size %v", name, size)
	}
	if d.alloc.used+size > d.alloc.capacity {
		return nil, fmt.Errorf("dram: allocate %q: %v exceeds free capacity %v",
			name, size, d.alloc.capacity-d.alloc.used)
	}
	b := &Buffer{Name: name, Size: size, Offset: d.alloc.next}
	d.alloc.used += size
	d.alloc.next += size
	d.alloc.buffers = append(d.alloc.buffers, b)
	return b, nil
}

// DoubleBuffer is the conventional host-DRAM double frame buffer: the
// display controller scans the front buffer while the decoder writes the
// back buffer, swapping on frame completion. BurstLink's DRFB moves this
// structure into the panel (§4.1); this type models the host-side original.
type DoubleBuffer struct {
	front, back *Buffer
	swaps       int
}

// NewDoubleBuffer allocates two frame buffers of frameSize in DRAM.
func NewDoubleBuffer(d *Device, name string, frameSize units.ByteSize) (*DoubleBuffer, error) {
	f, err := d.Allocate(name+".front", frameSize)
	if err != nil {
		return nil, err
	}
	b, err := d.Allocate(name+".back", frameSize)
	if err != nil {
		return nil, err
	}
	return &DoubleBuffer{front: f, back: b}, nil
}

// Swap exchanges front and back, publishing the just-written frame.
func (db *DoubleBuffer) Swap() {
	db.front, db.back = db.back, db.front
	db.swaps++
}
