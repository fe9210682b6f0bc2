// Package interconnect models the on-chip IO fabric of a mobile SoC
// (§2.1): an IOSF/AMBA-class interconnect over which IP blocks reach main
// memory through DMA engines or each other through peer-to-peer (P2P)
// engines, plus the control/status registers (CSRs) drivers program.
//
// BurstLink's Frame Buffer Bypass is, mechanically, a P2P transfer from
// the video decoder to the display controller instead of a DMA round-trip
// through DRAM; this package provides both datapaths with byte and timing
// accounting so the difference is measurable.
package interconnect

import (
	"fmt"
	"time"

	"burstlink/internal/dram"
	"burstlink/internal/units"
)

// Sink consumes data arriving over the fabric. Accept returns how long the
// consumer needs to absorb n bytes (its backpressure); the effective
// transfer time is the max of fabric time and sink time.
type Sink interface {
	// Name identifies the IP for tracing.
	Name() string
	// Accept consumes n bytes and returns the consumption latency.
	Accept(n units.ByteSize) time.Duration
}

// Fabric is the shared IO interconnect. Transfers are modeled with a
// sustained bandwidth; contention between concurrent IPs is outside the
// paper's model (video display is the only active flow) and therefore
// outside ours.
type Fabric struct {
	bandwidth units.DataRate
	moved     units.ByteSize
}

// NewFabric builds a fabric with the given sustained bandwidth. Mobile
// IOSF-class fabrics sustain tens of GB/s; the default used by the
// pipeline is 25 GB/s.
func NewFabric(bw units.DataRate) *Fabric {
	return &Fabric{bandwidth: bw}
}

// DefaultFabric returns a fabric with the pipeline's default bandwidth.
func DefaultFabric() *Fabric { return NewFabric(units.GBps(25)) }

// carry accounts n bytes and returns the fabric transfer time.
func (f *Fabric) carry(n units.ByteSize) time.Duration {
	f.moved += n
	return f.bandwidth.TimeFor(n)
}

// DMAEngine moves data between an IP and main memory (§2.1: "the DMA
// engine enables the IP to access the main memory directly").
type DMAEngine struct {
	Owner  string
	fabric *Fabric
	mem    *dram.Device

	toMem, fromMem units.ByteSize
}

// NewDMAEngine builds a DMA engine for the named IP.
func NewDMAEngine(owner string, f *Fabric, mem *dram.Device) *DMAEngine {
	return &DMAEngine{Owner: owner, fabric: f, mem: mem}
}

// WriteMem DMAs n bytes from the IP into DRAM, returning the transfer
// duration (the slower of fabric and DRAM).
func (d *DMAEngine) WriteMem(n units.ByteSize) time.Duration {
	d.toMem += n
	return maxDur(d.fabric.carry(n), d.mem.Write(n))
}

// ReadMem DMAs n bytes from DRAM into the IP.
func (d *DMAEngine) ReadMem(n units.ByteSize) time.Duration {
	d.fromMem += n
	return maxDur(d.fabric.carry(n), d.mem.Read(n))
}

// P2PEngine moves data directly between two IPs over the fabric without
// touching DRAM (§2.1: "P2P reduces the data transmission delay and
// increases the overall available system bandwidth").
type P2PEngine struct {
	Owner  string
	fabric *Fabric
	moved  units.ByteSize
}

// NewP2PEngine builds a P2P engine for the named IP.
func NewP2PEngine(owner string, f *Fabric) *P2PEngine {
	return &P2PEngine{Owner: owner, fabric: f}
}

// Send pushes n bytes to the destination sink and returns the end-to-end
// duration: the max of fabric time and the sink's consumption time.
func (p *P2PEngine) Send(dst Sink, n units.ByteSize) time.Duration {
	p.moved += n
	return maxDur(p.fabric.carry(n), dst.Accept(n))
}

// Moved returns total bytes sent peer-to-peer by this engine.
func (p *P2PEngine) Moved() units.ByteSize { return p.moved }

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// CSRFile is a bank of named control/status registers, the mechanism
// drivers and the PMU firmware use to coordinate (§4.4: single_video in
// the VD CSRs, plane type/count in the DC CSRs such as SR02 and GRX).
type CSRFile struct {
	owner string
	regs  map[string]uint64
}

// NewCSRFile builds an empty register bank for the named IP.
func NewCSRFile(owner string) *CSRFile {
	return &CSRFile{owner: owner, regs: make(map[string]uint64)}
}

// Write sets a register.
func (c *CSRFile) Write(name string, v uint64) { c.regs[name] = v }

// Read returns a register's value; unwritten registers read as zero, as
// hardware reset values do.
func (c *CSRFile) Read(name string) uint64 { return c.regs[name] }

// SetFlag writes a boolean register.
func (c *CSRFile) SetFlag(name string, v bool) {
	if v {
		c.regs[name] = 1
	} else {
		c.regs[name] = 0
	}
}

// Flag reads a boolean register.
func (c *CSRFile) Flag(name string) bool { return c.regs[name] != 0 }

// String identifies the register bank.
func (c *CSRFile) String() string { return fmt.Sprintf("CSR[%s]", c.owner) }
