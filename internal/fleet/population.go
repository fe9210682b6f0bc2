// Package fleet scales the single-session run path to device
// populations: the paper's headline claims are population claims
// (battery-life impact of DRFB/BurstLink across device classes and
// daily usage mixes), so the natural request shape is "simulate N
// devices for a day and report the battery-impact distribution", not N
// separate session calls.
//
// The package has two layers. The sampler (this file) turns a
// Population spec — weighted device classes, weighted content mixes,
// per-segment hour choices — into a deterministic per-index device
// stream: Device(i) is a pure function of (seed, i), independent of
// worker count or evaluation order, and renders itself into a canonical
// memo key so identical configurations deduplicate before any
// simulation runs. The executor (executor.go) streams those indices
// through session.Engine on the par pool with a shared delta-simulation
// segment cache and folds per-device metrics into a columnar sink in
// device-index order, which keeps the aggregate bit-identical across
// worker counts and cache arms.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/session"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

// Class is one weighted device class of the population: the panel, the
// battery, and a performance scale applied to the reference platform's
// IP throughputs (a cheap device-binning knob — a slower SoC decodes
// and fetches slower, which the DVFS-aware power model prices).
type Class struct {
	Name       string
	Weight     int
	BatteryMWh float64
	Res        units.Resolution
	Refresh    units.RefreshRate
	// PerfScale scales the reference platform's VD/GPU/DC throughputs;
	// 1 is the evaluated Surface-Pro-class tablet.
	PerfScale float64
}

// AppendKey renders the class into its canonical key. Every field
// participates: a class knob that moved the simulation but not the key
// would collapse distinct devices onto one cached result.
func (c Class) AppendKey(w *memo.KeyWriter) {
	w.String("name", c.Name)
	w.Int("weight", int64(c.Weight))
	w.Float("battery", c.BatteryMWh)
	w.Int("w", int64(c.Res.Width))
	w.Int("h", int64(c.Res.Height))
	w.Int("hz", int64(c.Refresh))
	w.Float("perf", c.PerfScale)
}

// Platform derives the class's platform from the reference platform by
// scaling the IP throughputs with PerfScale.
func (c Class) Platform(ref pipeline.Platform) pipeline.Platform {
	p := ref
	p.VDPixelRate *= c.PerfScale
	p.VDPixelRateLP *= c.PerfScale
	p.GPUPixelRate *= c.PerfScale
	p.DCFetchRate = units.DataRate(float64(p.DCFetchRate) * c.PerfScale)
	return p
}

// Battery returns the class's battery.
func (c Class) Battery() workload.Battery {
	return workload.Battery{CapacityMilliWattHours: c.BatteryMWh}
}

// Content is one weighted content choice of the daily mix: the frame
// rate, an optional explicit bitrate, a representative session length
// the executor actually simulates, and the VR flag with its source
// resolution.
type Content struct {
	Name   string
	Weight int
	FPS    units.FPS
	// Seconds is the representative session length simulated for this
	// content; the result's average power prices the whole segment.
	Seconds int
	// Bitrate is the stream bitrate in bits/s; 0 derives it from the
	// platform's encoded-frame model.
	Bitrate units.DataRate
	// VR marks 360° content decoded from VRSource then projected.
	VR       bool
	VRSource units.Resolution
}

// AppendKey renders the content into its canonical key.
func (c Content) AppendKey(w *memo.KeyWriter) {
	w.String("name", c.Name)
	w.Int("weight", int64(c.Weight))
	w.Int("fps", int64(c.FPS))
	w.Int("seconds", int64(c.Seconds))
	w.Float("bps", float64(c.Bitrate))
	w.Bool("vr", c.VR)
	w.Int("srcw", int64(c.VRSource.Width))
	w.Int("srch", int64(c.VRSource.Height))
}

// DaySegment is one block of a device's day: a content choice played
// for a number of hours.
type DaySegment struct {
	Content Content
	Hours   float64
}

// AppendKey renders the segment into its canonical key.
func (s DaySegment) AppendKey(w *memo.KeyWriter) {
	w.Sub("content", s.Content)
	w.Float("hours", s.Hours)
}

// Device is one sampled device configuration: a class plus its day mix,
// in canonical (sorted) segment order. Its canonical key is what the
// executor deduplicates on.
type Device struct {
	Class    Class
	Segments []DaySegment
}

// AppendKey renders the device into its canonical key: the class and
// every day segment, length-prefixed.
func (d Device) AppendKey(w *memo.KeyWriter) {
	w.Sub("class", d.Class)
	w.Int("segments", int64(len(d.Segments)))
	for _, s := range d.Segments {
		w.Sub("segment", s)
	}
}

// Key returns the device's canonical cache key.
func (d Device) Key() string { return memo.KeyOf("device", d) }

// Population is the sampled device population: the spec every device
// configuration is drawn from, plus the size, seed, and technique arm.
type Population struct {
	// Size is the device count.
	Size int
	// Seed makes the population reproducible: Device(i) is a pure
	// function of (Seed, i).
	Seed uint64
	// Scheme is the technique arm each device is priced under, compared
	// against the conventional baseline.
	Scheme session.Scheme
	// Segments is the number of day segments per device.
	Segments int
	// Hours are the per-segment hour choices (uniform).
	Hours []float64
	// Classes and Contents are the weighted categorical distributions.
	Classes  []Class
	Contents []Content
}

// AppendKey renders the population into its canonical key: every field,
// each class and content through its own AppendKey. Each element carries
// its field's tag, so the sequence needs no counts.
func (p Population) AppendKey(w *memo.KeyWriter) {
	w.Int("size", int64(p.Size))
	w.Uint("seed", p.Seed)
	w.Int("scheme", int64(p.Scheme))
	w.Int("segments", int64(p.Segments))
	for _, h := range p.Hours {
		w.Float("hour", h)
	}
	for _, c := range p.Classes {
		w.Sub("class", c)
	}
	for _, c := range p.Contents {
		w.Sub("content", c)
	}
}

// Default returns the reference population: four device classes
// (phone, tablet, laptop, HMD-class panel) and a four-way content mix
// including a 360° VR stream, two segments a day of one or two hours
// each, priced under full BurstLink.
func Default() Population {
	return Population{
		Scheme:   session.BurstLink,
		Segments: 2,
		Hours:    []float64{1, 2},
		Classes: []Class{
			{Name: "phone", Weight: 5, BatteryMWh: 17000, Res: units.FHD, Refresh: 60, PerfScale: 0.8},
			{Name: "tablet", Weight: 3, BatteryMWh: 38200, Res: units.QHD, Refresh: 60, PerfScale: 1},
			{Name: "laptop", Weight: 2, BatteryMWh: 52000, Res: units.R4K, Refresh: 60, PerfScale: 1.5},
			{Name: "hmd", Weight: 1, BatteryMWh: 19000, Res: units.Resolution{Width: 2880, Height: 1600}, Refresh: 60, PerfScale: 1},
		},
		Contents: []Content{
			{Name: "stream-30", Weight: 4, FPS: 30, Seconds: 30},
			{Name: "stream-60", Weight: 3, FPS: 60, Seconds: 30},
			{Name: "stream-hq", Weight: 2, FPS: 60, Seconds: 30, Bitrate: 80 * units.Mbps},
			{Name: "vr-360", Weight: 1, FPS: 60, Seconds: 20, VR: true, VRSource: units.R4K},
		},
	}
}

// Validate checks the population spec: positive size and weights whose
// totals fit in an int (the sampler's precondition), unique names, and
// every class × content combination must form a valid scenario (refresh
// a multiple of fps, VR sources present).
func (p Population) Validate() error {
	if p.Size <= 0 {
		return fmt.Errorf("fleet: population size %d must be positive", p.Size)
	}
	if p.Segments <= 0 {
		return fmt.Errorf("fleet: segments per day %d must be positive", p.Segments)
	}
	if len(p.Hours) == 0 {
		return fmt.Errorf("fleet: hour choices must be non-empty")
	}
	for _, h := range p.Hours {
		if h <= 0 {
			return fmt.Errorf("fleet: hour choice %g must be positive", h)
		}
	}
	if len(p.Classes) == 0 || len(p.Contents) == 0 {
		return fmt.Errorf("fleet: classes and contents must be non-empty")
	}
	names := make(map[string]bool)
	total := 0
	for _, c := range p.Classes {
		if c.Name == "" || names[c.Name] {
			return fmt.Errorf("fleet: class names must be unique and non-empty (%q)", c.Name)
		}
		names[c.Name] = true
		if c.Weight <= 0 {
			return fmt.Errorf("fleet: class %s weight %d must be positive", c.Name, c.Weight)
		}
		if c.Weight > math.MaxInt-total {
			return fmt.Errorf("fleet: class weights total more than %d", math.MaxInt)
		}
		total += c.Weight
		if c.BatteryMWh <= 0 {
			return fmt.Errorf("fleet: class %s battery %g mWh must be positive", c.Name, c.BatteryMWh)
		}
		if c.PerfScale <= 0 {
			return fmt.Errorf("fleet: class %s perf scale %g must be positive", c.Name, c.PerfScale)
		}
	}
	names = make(map[string]bool)
	total = 0
	for _, c := range p.Contents {
		if c.Name == "" || names[c.Name] {
			return fmt.Errorf("fleet: content names must be unique and non-empty (%q)", c.Name)
		}
		names[c.Name] = true
		if c.Weight <= 0 {
			return fmt.Errorf("fleet: content %s weight %d must be positive", c.Name, c.Weight)
		}
		if c.Weight > math.MaxInt-total {
			return fmt.Errorf("fleet: content weights total more than %d", math.MaxInt)
		}
		total += c.Weight
		if c.Seconds <= 0 {
			return fmt.Errorf("fleet: content %s seconds %d must be positive", c.Name, c.Seconds)
		}
		if c.Bitrate < 0 {
			return fmt.Errorf("fleet: content %s bitrate %g must be non-negative", c.Name, float64(c.Bitrate))
		}
	}
	// Any class can sample any content, so every combination must be a
	// valid scenario.
	for _, cl := range p.Classes {
		for _, co := range p.Contents {
			if err := scenarioOf(cl, co).Validate(); err != nil {
				return fmt.Errorf("fleet: class %s × content %s: %w", cl.Name, co.Name, err)
			}
		}
	}
	return nil
}

// scenarioOf builds the pipeline scenario of one content choice played
// on one device class's panel.
func scenarioOf(cl Class, co Content) pipeline.Scenario {
	s := pipeline.Scenario{Res: cl.Res, Refresh: cl.Refresh, FPS: co.FPS, BPP: 24}
	if co.VR {
		s.VR = true
		s.VRSource = co.VRSource
		s.MotionFactor = 1
	}
	return s
}

// rng is a splitmix64 stream: the standard 64-bit mixer, here because
// per-device sampling must be a pure function of (seed, index) — no
// shared generator state that worker scheduling could reorder.
type rng struct{ s uint64 }

// deviceRNG derives device i's sample stream from the population seed.
func deviceRNG(seed uint64, i int) rng {
	return rng{s: seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias at 64 bits is far
// below anything a population percentile can resolve.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// weighted picks an index by cumulative weight.
func weighted[T any](r *rng, items []T, weight func(T) int) int {
	total := 0
	for _, it := range items {
		total += weight(it)
	}
	pick := r.intn(total)
	for i, it := range items {
		pick -= weight(it)
		if pick < 0 {
			return i
		}
	}
	return len(items) - 1
}

// Device samples device i's configuration: a weighted class choice plus
// Segments weighted content segments with sampled hours, put into
// canonical (sorted) order. Sorting is the dedup lever: a day is a sum
// over its segments, so two devices whose days are permutations of each
// other are the same device, and the canonical order makes their keys
// — and their float folds — identical.
func (p Population) Device(i int) Device {
	r := deviceRNG(p.Seed, i)
	d := Device{
		Class:    p.Classes[weighted(&r, p.Classes, func(c Class) int { return c.Weight })],
		Segments: make([]DaySegment, p.Segments),
	}
	for j := range d.Segments {
		d.Segments[j] = DaySegment{
			Content: p.Contents[weighted(&r, p.Contents, func(c Content) int { return c.Weight })],
			Hours:   p.Hours[r.intn(len(p.Hours))],
		}
	}
	sort.Slice(d.Segments, func(a, b int) bool {
		sa, sb := d.Segments[a], d.Segments[b]
		if sa.Content.Name != sb.Content.Name {
			return sa.Content.Name < sb.Content.Name
		}
		return sa.Hours < sb.Hours
	})
	return d
}
