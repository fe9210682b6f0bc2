package display

import (
	"fmt"
	"testing"
	"time"

	"burstlink/internal/edp"
	"burstlink/internal/units"
)

func TestLCDLineTime(t *testing.T) {
	lcd := NewLCD(Config{Resolution: units.FHD, BPP: 24, Refresh: 60})
	// 1080 lines in 16.67 ms → ~15.4 µs per line.
	lt := lcd.LineTime()
	if lt < 15*time.Microsecond || lt > 16*time.Microsecond {
		t.Fatalf("line time = %v, want ~15.4µs", lt)
	}
	if NewLCD(Config{}).LineTime() != 0 {
		t.Fatal("degenerate config should yield zero line time")
	}
}

func TestLCDScanOut(t *testing.T) {
	cfg := Config{Resolution: units.FHD, BPP: 24, Refresh: 60}
	lcd := NewLCD(cfg)
	d, err := lcd.ScanOut(Frame{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d != cfg.Refresh.Window() {
		t.Fatalf("scan duration = %v, want one window", d)
	}
	st := lcd.Stats()
	if st.Frames != 1 || st.LinesScanned != 1080 {
		t.Fatalf("stats = %+v", st)
	}
	// Wrong-sized pixel data is rejected.
	if _, err := lcd.ScanOut(Frame{Seq: 2, Data: make([]byte, 10)}); err == nil {
		t.Fatal("wrong-size frame should fail")
	}
}

func TestLCDFlickerOnOverdrive(t *testing.T) {
	// §3 Observation 2: feeding the drivers above the panel's fixed
	// pixel-update rate flickers. The eDP burst rate (25.92 Gbps) is far
	// above an FHD60 panel's ~3 Gbps update rate — this is exactly why a
	// burst *requires* the DRFB to decouple link from glass.
	cfg := Config{Resolution: units.FHD, BPP: 24, Refresh: 60}
	lcd := NewLCD(cfg)
	if lcd.CheckSourceRate(cfg.PixelRate()) != true {
		t.Fatal("native rate should be clean")
	}
	if lcd.CheckSourceRate(edp.EDP14().MaxBandwidth()) {
		t.Fatal("burst-rate feed must flicker without a DRFB")
	}
	if lcd.Stats().Flicker != 1 {
		t.Fatalf("flicker = %d", lcd.Stats().Flicker)
	}
	// With the DRFB, the PF pulls from the buffer at the native rate no
	// matter how fast the link filled it: clean.
	if !lcd.CheckSourceRate(cfg.PixelRate()) {
		t.Fatal("DRFB-decoupled feed should be clean")
	}
}

func TestLCDToleranceBand(t *testing.T) {
	cfg := Config{Resolution: units.FHD, BPP: 24, Refresh: 60}
	lcd := NewLCD(cfg)
	// 1% over is within driver tolerance.
	if !lcd.CheckSourceRate(units.DataRate(float64(cfg.PixelRate()) * 1.01)) {
		t.Fatal("1% overdrive should be tolerated")
	}
	if lcd.CheckSourceRate(units.DataRate(float64(cfg.PixelRate()) * 1.05)) {
		t.Fatal("5% overdrive should flicker")
	}
}

// The LCD drive model below is test-only: no binary, figure or benchmark
// scans out through it, and these tests are its only callers.

// PixelRate returns the fixed rate at which the pixel formatter feeds the
// LCD drivers, set by resolution, refresh rate, and color depth (§4.2).
func (c Config) PixelRate() units.DataRate { return c.Refresh.PixelRate(c.Resolution, c.BPP) }

// LCD models the LCD interface of Fig 2 (❽/❾): row and column drivers
// that update the panel's pixels line by line at a fixed rate set by the
// panel's resolution and refresh rate. Its central constraint is the one
// §3 (Observation 2) builds on: the pixel-update rate is fixed by the
// glass — "increasing the PF's pixel update rate without proper changes
// to the LCD panel would cause image flickering and distortion". The
// DRFB exists precisely so the link can run faster than this interface.
type LCD struct {
	cfg Config

	linesScanned int64
	frames       int64
	flicker      int
}

// NewLCD builds the drive electronics for a panel configuration.
func NewLCD(cfg Config) *LCD { return &LCD{cfg: cfg} }

// LineTime returns the time the row driver spends per line.
func (l *LCD) LineTime() time.Duration {
	lines := l.cfg.Resolution.Height
	if lines <= 0 {
		return 0
	}
	return l.cfg.Refresh.Window() / time.Duration(lines)
}

// PixelUpdateRate returns the fixed rate the drivers consume pixel data.
func (l *LCD) PixelUpdateRate() units.DataRate { return l.cfg.PixelRate() }

// ScanOut drives one full frame onto the glass, returning the scan
// duration (one refresh window).
func (l *LCD) ScanOut(f Frame) (time.Duration, error) {
	if f.Size() > 0 && f.Size() != l.cfg.FrameSize() {
		return 0, fmt.Errorf("display: lcd scan of %v frame on %v panel", f.Size(), l.cfg.FrameSize())
	}
	l.linesScanned += int64(l.cfg.Resolution.Height)
	l.frames++
	return l.cfg.Refresh.Window(), nil
}

// CheckSourceRate verifies that the pixel formatter feeds the drivers at
// the panel's fixed rate. A source faster than the glass tolerates
// (>2% over) is recorded as a flicker event — the §3 failure mode a
// conventional (RFB-less burst) design would hit.
func (l *LCD) CheckSourceRate(r units.DataRate) bool {
	if float64(r) > float64(l.PixelUpdateRate())*1.02 {
		l.flicker++
		return false
	}
	return true
}

// Stats reports scan-out counters.
type LCDStats struct {
	Frames       int64
	LinesScanned int64
	Flicker      int
}

// Stats returns the counters.
func (l *LCD) Stats() LCDStats {
	return LCDStats{Frames: l.frames, LinesScanned: l.linesScanned, Flicker: l.flicker}
}
