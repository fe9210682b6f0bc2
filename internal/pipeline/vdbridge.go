package pipeline

import "burstlink/internal/vd"

// WithVD derives the platform's decoder throughputs from a
// microarchitectural decoder model instead of the calibrated constants,
// tying the timing parameters to the vd package's stage pipeline. Its
// caller is TestWithVDStaysCalibrated.
func (p Platform) WithVD(c vd.Config) Platform {
	p.VDPixelRate = c.Throughput()
	p.VDPixelRateLP = c.ThroughputLP()
	return p
}
