// Package dram models the platform's main memory: the
// bandwidth-proportional operating power of the paper's model (§5.2),
// sustained-bandwidth transfer timing, and a frame-buffer allocator used
// by the display pipeline. DRAM background power is a per-C-state
// component of the power model (internal/power), not a device state.
package dram

import (
	"time"

	"burstlink/internal/units"
)

// Config describes a DRAM subsystem. Defaults model the baseline system's
// LPDDR3-1866 dual-channel 8 GB configuration (Table 3).
type Config struct {
	Capacity units.ByteSize
	// SustainedBandwidth is the achievable (not theoretical-peak)
	// bandwidth for streaming transfers.
	SustainedBandwidth units.DataRate

	// Operating power per unit bandwidth: the paper extrapolates mW per
	// 1 GB/s of reads and of writes from a memory benchmark sweep (§5.2).
	ReadPowerPerGBps  units.Power
	WritePowerPerGBps units.Power
}

// DefaultLPDDR3 returns the baseline system's memory configuration
// (LPDDR3-1866, 8 GB, dual-channel; Table 3). Power coefficients follow
// the measurement methodology of §5.2 and are the values the composed
// model is calibrated with (see internal/power).
func DefaultLPDDR3() Config {
	return Config{
		Capacity:           8 * units.GiB,
		SustainedBandwidth: units.GBps(14.9), // ~50% of 29.8 GB/s peak
		ReadPowerPerGBps:   110 * units.MilliWatt,
		WritePowerPerGBps:  125 * units.MilliWatt,
	}
}

// OperatingPower returns the bandwidth-proportional power for the given
// read and write rates.
func (c Config) OperatingPower(read, write units.DataRate) units.Power {
	const gbps = 8e9 // bits/s per GB/s
	return units.Power(float64(c.ReadPowerPerGBps)*float64(read)/gbps +
		float64(c.WritePowerPerGBps)*float64(write)/gbps)
}

// Device is a DRAM subsystem instance with traffic accounting.
type Device struct {
	cfg           Config
	reads, writes units.ByteSize
	alloc         allocator
}

// NewDevice builds a device with nothing allocated.
func NewDevice(cfg Config) *Device {
	return &Device{cfg: cfg, alloc: allocator{capacity: cfg.Capacity}}
}

// Read accounts n bytes of read traffic and returns the transfer duration
// at sustained bandwidth.
func (d *Device) Read(n units.ByteSize) time.Duration {
	d.reads += n
	return d.cfg.SustainedBandwidth.TimeFor(n)
}

// Write accounts n bytes of write traffic and returns the transfer
// duration at sustained bandwidth.
func (d *Device) Write(n units.ByteSize) time.Duration {
	d.writes += n
	return d.cfg.SustainedBandwidth.TimeFor(n)
}

// Traffic returns cumulative read and write byte counts.
func (d *Device) Traffic() (read, write units.ByteSize) { return d.reads, d.writes }
