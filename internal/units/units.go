// Package units defines the physical quantities used throughout the
// BurstLink simulator: data sizes, data rates, power, energy, and display
// geometry. Keeping these as distinct types catches unit mix-ups (for
// example, feeding a bit rate where a byte rate is expected) at compile
// time rather than in a plot that looks subtly wrong.
package units

import (
	"fmt"
	"time"
)

// ByteSize is a data size in bytes.
type ByteSize int64

// Common data sizes.
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB
	KiB           = 1024 * Byte
	MiB           = 1024 * KiB
	GiB           = 1024 * MiB
)

// Bits returns the size in bits.
func (b ByteSize) Bits() int64 { return int64(b) * 8 }

// String formats the size with a binary-friendly decimal unit, e.g.
// "24.9 MB".
func (b ByteSize) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2f GB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.1f MB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.1f KB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%d B", int64(b))
}

// DataRate is a transfer rate in bits per second. Display interfaces are
// conventionally quoted in Gbps, memory interfaces in GB/s; both convert
// through this type.
type DataRate float64

// Common data rates.
const (
	BitPerSecond DataRate = 1
	Kbps                  = 1e3 * BitPerSecond
	Mbps                  = 1e6 * BitPerSecond
	Gbps                  = 1e9 * BitPerSecond
)

// BytesPerSecond constructs a DataRate from a byte-per-second figure.
func BytesPerSecond(bps float64) DataRate { return DataRate(bps * 8) }

// GBps constructs a DataRate from a gigabyte-per-second figure.
func GBps(g float64) DataRate { return BytesPerSecond(g * 1e9) }

// TimeFor returns how long moving size at this rate takes. A zero or
// negative rate yields an infinite-like duration of math.MaxInt64; callers
// treat it as "never completes".
func (r DataRate) TimeFor(size ByteSize) time.Duration {
	if r <= 0 {
		return time.Duration(1<<63 - 1)
	}
	sec := float64(size.Bits()) / float64(r)
	return time.Duration(sec * float64(time.Second))
}

// String formats the rate in the most natural decimal unit.
func (r DataRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2f Gbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.1f Mbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.1f Kbps", float64(r)/float64(Kbps))
	}
	return fmt.Sprintf("%.0f bps", float64(r))
}

// Frequency is a clock or signal frequency in hertz. Distinct from
// RefreshRate (a small integer display cadence): Frequency carries the
// hundreds-of-MHz fixed-function clocks of Table 2's derivations. Its
// callers are the clocks of the internal/vd reference model.
type Frequency float64

// Common frequencies.
const (
	Hz  Frequency = 1
	KHz           = 1e3 * Hz
	MHz           = 1e6 * Hz
	GHz           = 1e9 * Hz
)

// Period returns the duration of one cycle. A zero or negative frequency
// yields 0.
func (f Frequency) Period() time.Duration {
	if f <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / float64(f))
}

// String formats the frequency in the most natural decimal unit.
func (f Frequency) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.2f GHz", float64(f)/float64(GHz))
	case f >= MHz:
		return fmt.Sprintf("%.0f MHz", float64(f)/float64(MHz))
	case f >= KHz:
		return fmt.Sprintf("%.1f kHz", float64(f)/float64(KHz))
	}
	return fmt.Sprintf("%.0f Hz", float64(f))
}

// Power is an electrical power in milliwatts. The paper reports all
// platform powers in mW, so we keep that convention.
type Power float64

// Common power units.
const (
	MilliWatt Power = 1
	Watt            = 1000 * MilliWatt
)

// String formats the power, e.g. "2162 mW".
func (p Power) String() string {
	if p >= Watt*10 {
		return fmt.Sprintf("%.2f W", float64(p)/float64(Watt))
	}
	return fmt.Sprintf("%.0f mW", float64(p))
}

// Energy is an amount of energy in millijoules.
type Energy float64

// Common energy units.
const (
	MilliJoule Energy = 1
	Joule             = 1000 * MilliJoule
)

// String formats the energy, e.g. "36.0 mJ".
func (e Energy) String() string {
	if e >= Joule*10 {
		return fmt.Sprintf("%.2f J", float64(e)/float64(Joule))
	}
	return fmt.Sprintf("%.1f mJ", float64(e))
}

// EnergyOver returns the energy dissipated by drawing p for d.
func EnergyOver(p Power, d time.Duration) Energy {
	return Energy(float64(p) * d.Seconds())
}

// AveragePower returns the constant power that dissipates e over d.
// A zero duration returns 0.
func AveragePower(e Energy, d time.Duration) Power {
	if d <= 0 {
		return 0
	}
	return Power(float64(e) / d.Seconds())
}
