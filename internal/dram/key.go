package dram

import "burstlink/internal/memo"

// AppendKey renders the memory configuration into a canonical segment
// key (all fields: the power coefficients feed per-phase DRAM operating
// power, the capacity and bandwidth feed the functional engine).
func (c Config) AppendKey(w *memo.KeyWriter) {
	w.Uint("capacity", uint64(c.Capacity))
	w.Float("bw", float64(c.SustainedBandwidth))
	w.Float("readgbps", float64(c.ReadPowerPerGBps))
	w.Float("writegbps", float64(c.WritePowerPerGBps))
}
