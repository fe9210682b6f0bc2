// Package dram models the platform's main memory: its power states
// (self-refresh, CKE-Low fast power-down, CKE-High active), the split of
// power into background and bandwidth-proportional operating components
// exactly as the paper's model does (§5.2), sustained-bandwidth transfer
// timing, and a frame-buffer allocator used by the display pipeline.
package dram

import (
	"fmt"
	"time"

	"burstlink/internal/units"
)

// PowerState is a DRAM device power state (§5.2). In the evaluated
// platform the DRAM state is correlated with the package C-state: CKE-High
// in C0/C2 and self-refresh in C3 and deeper (Table 1).
type PowerState int

// DRAM power states, deep to shallow.
const (
	SelfRefresh PowerState = iota // clock stopped, device refreshes itself
	_                             // CKE-Low fast power-down, quick re-activation
	CKEHigh                       // active or active-idle
)

var powerStateNames = [...]string{"self-refresh", "CKE-low", "CKE-high"}

// String returns the state name.
func (s PowerState) String() string {
	if s < 0 || int(s) >= len(powerStateNames) {
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
	return powerStateNames[s]
}

// Config describes a DRAM subsystem. Defaults model the baseline system's
// LPDDR3-1866 dual-channel 8 GB configuration (Table 3).
type Config struct {
	Capacity units.ByteSize
	// SustainedBandwidth is the achievable (not theoretical-peak)
	// bandwidth for streaming transfers.
	SustainedBandwidth units.DataRate

	// Background power per state, independent of traffic.
	SelfRefreshPower units.Power
	CKELowPower      units.Power
	CKEHighPower     units.Power

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
		SelfRefreshPower:   45 * units.MilliWatt,
		CKELowPower:        140 * units.MilliWatt,
		CKEHighPower:       520 * units.MilliWatt,
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
	cfg   Config
	state PowerState

	reads, writes units.ByteSize
	inState       map[PowerState]time.Duration
	lastChange    time.Duration
	alloc         allocator
}

// NewDevice builds a device in CKE-High.
func NewDevice(cfg Config) *Device {
	return &Device{
		cfg:     cfg,
		state:   CKEHigh,
		inState: make(map[PowerState]time.Duration),
		alloc:   allocator{capacity: cfg.Capacity},
	}
}

// Read accounts n bytes of read traffic and returns the transfer duration
// at sustained bandwidth. Reading while in self-refresh panics: the model
// requires the memory controller to wake the device first, and a violation
// is a pipeline-scheduling bug.
func (d *Device) Read(n units.ByteSize) time.Duration {
	d.requireAwake("read")
	d.reads += n
	return d.cfg.SustainedBandwidth.TimeFor(n)
}

// Write accounts n bytes of write traffic and returns the transfer
// duration at sustained bandwidth.
func (d *Device) Write(n units.ByteSize) time.Duration {
	d.requireAwake("write")
	d.writes += n
	return d.cfg.SustainedBandwidth.TimeFor(n)
}

func (d *Device) requireAwake(op string) {
	if d.state == SelfRefresh {
		panic("dram: " + op + " while in self-refresh")
	}
}

// Traffic returns cumulative read and write byte counts.
func (d *Device) Traffic() (read, write units.ByteSize) { return d.reads, d.writes }
