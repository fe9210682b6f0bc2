package api

import (
	"fmt"
	"io"

	"burstlink/internal/fleet"
	"burstlink/internal/memo"
	"burstlink/internal/session"
	"burstlink/internal/sink"
	"burstlink/internal/units"
)

// Fleet limits: a fleet request is one POST that fans out to up to
// MaxFleetSize sampled devices, so the spec lists are bounded tightly —
// simulation cost is bounded by the unique-configuration count, which is
// capped by the cross product of these list lengths.
const (
	MaxFleetSize     = 1_000_000
	MaxFleetList     = 32 // classes, contents, hour choices
	MaxFleetSegments = 16 // day segments per device
	MaxFleetHours    = 24 // hours per day segment
)

// FleetClass is the wire form of one weighted device class in a fleet
// population (fleet.Class).
type FleetClass struct {
	Name       string            `json:"name"`
	Weight     int               `json:"weight"`
	BatteryMWh float64           `json:"battery_mwh"`
	Resolution string            `json:"resolution"`
	Refresh    units.RefreshRate `json:"refresh_hz"`
	// PerfScale scales the reference platform's IP throughputs;
	// 0 defaults to 1.
	PerfScale float64 `json:"perf_scale,omitempty"`
}

// FleetContent is the wire form of one weighted content choice
// (fleet.Content).
type FleetContent struct {
	Name   string    `json:"name"`
	Weight int       `json:"weight"`
	FPS    units.FPS `json:"fps"`
	// Seconds is the representative simulated session length.
	Seconds int `json:"seconds"`
	// Bitrate of the encoded stream in bits/s; 0 derives it from the
	// platform's encoded-frame model.
	Bitrate  units.DataRate `json:"bitrate_bps,omitempty"`
	VR       bool           `json:"vr,omitempty"`
	VRSource string         `json:"vr_source,omitempty"`
}

// FleetRequest asks for a population simulation (POST /v1/fleet): Size
// devices sampled deterministically from the spec by Seed, each priced
// for a day under the scheme vs the conventional baseline, aggregated
// into battery-impact and energy-saving distributions. Identical
// (seed, spec) pairs produce byte-identical aggregates regardless of
// server worker count or cache state — which is what makes the response
// cacheable under the population's key.
type FleetRequest struct {
	Size int    `json:"size"`
	Seed uint64 `json:"seed"`
	// Scheme is the technique arm; defaults to "burstlink".
	Scheme string `json:"scheme,omitempty"`
	// Segments per device day; defaults to 2.
	Segments int `json:"segments,omitempty"`
	// Hours are the per-segment hour choices; defaults to [1, 2].
	Hours []float64 `json:"hours,omitempty"`
	// Classes and Contents default to the reference population
	// (fleet.Default) when omitted.
	Classes  []FleetClass   `json:"classes,omitempty"`
	Contents []FleetContent `json:"contents,omitempty"`
	// Stream switches the response to NDJSON progress events followed by
	// the final result. Streamed responses bypass the result cache. The
	// key is the sampled population's, which has no Stream field: the
	// flag changes the transport, not the result.
	Stream bool `json:"stream,omitempty"`
}

// FleetResponse reports the aggregate outcome: the population shape and
// the per-metric streaming summaries (mean, extrema, percentiles,
// histogram). It carries no per-device rows and no wall-clock data, so
// equal requests serialize to equal bytes.
type FleetResponse struct {
	Devices int                  `json:"devices"`
	Unique  int                  `json:"unique_configs"`
	Scheme  string               `json:"scheme"`
	Metrics []sink.MetricSummary `json:"metrics"`
}

// FleetProgress is one NDJSON progress event of a streamed fleet run.
type FleetProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// FleetEvent is one NDJSON line of a streamed fleet response: a progress
// event or (exactly once, last) the final result.
type FleetEvent struct {
	Progress *FleetProgress `json:"progress,omitempty"`
	Result   *FleetResponse `json:"result,omitempty"`
}

// defaultFleetWire converts the reference population's spec to wire form
// for Normalize.
func defaultFleetWire() ([]FleetClass, []FleetContent, []float64, int) {
	d := fleet.Default()
	classes := make([]FleetClass, len(d.Classes))
	for i, c := range d.Classes {
		classes[i] = FleetClass{
			Name:       c.Name,
			Weight:     c.Weight,
			BatteryMWh: c.BatteryMWh,
			Resolution: fmt.Sprintf("%dx%d", c.Res.Width, c.Res.Height),
			Refresh:    c.Refresh,
			PerfScale:  c.PerfScale,
		}
	}
	contents := make([]FleetContent, len(d.Contents))
	for i, c := range d.Contents {
		contents[i] = FleetContent{
			Name:    c.Name,
			Weight:  c.Weight,
			FPS:     c.FPS,
			Seconds: c.Seconds,
			Bitrate: c.Bitrate,
			VR:      c.VR,
		}
		if c.VR {
			contents[i].VRSource = fmt.Sprintf("%dx%d", c.VRSource.Width, c.VRSource.Height)
		}
	}
	return classes, contents, d.Hours, d.Segments
}

// Normalize fills defaulted fields in place so requests differing only
// in elided defaults share a key.
func (r *FleetRequest) Normalize() {
	defClasses, defContents, defHours, defSegments := defaultFleetWire()
	if r.Scheme == "" {
		r.Scheme = session.BurstLink.String()
	}
	if r.Segments == 0 {
		r.Segments = defSegments
	}
	if len(r.Hours) == 0 {
		r.Hours = defHours
	}
	if len(r.Classes) == 0 {
		r.Classes = defClasses
	}
	if len(r.Contents) == 0 {
		r.Contents = defContents
	}
	for i := range r.Classes {
		if r.Classes[i].PerfScale == 0 {
			r.Classes[i].PerfScale = 1
		}
	}
	for i := range r.Contents {
		if !r.Contents[i].VR {
			r.Contents[i].VRSource = ""
		}
	}
}

// Validate checks the normalized request against the service limits and
// the population's own spec validation (weights, unique names, and every
// class × content combination forming a feasible scenario shape).
func (r *FleetRequest) Validate() error {
	if r.Size < 1 || r.Size > MaxFleetSize {
		return Errf(400, "bad_fleet", "size %d out of range (1..%d)", r.Size, MaxFleetSize)
	}
	if r.Segments < 1 || r.Segments > MaxFleetSegments {
		return Errf(400, "bad_fleet", "segments %d out of range (1..%d)", r.Segments, MaxFleetSegments)
	}
	if len(r.Hours) > MaxFleetList || len(r.Classes) > MaxFleetList || len(r.Contents) > MaxFleetList {
		return Errf(400, "bad_fleet", "hours, classes, and contents are limited to %d entries each", MaxFleetList)
	}
	for _, h := range r.Hours {
		if h <= 0 || h > MaxFleetHours {
			return Errf(400, "bad_fleet", "hour choice %g out of range (0..%d]", h, MaxFleetHours)
		}
	}
	if _, err := session.ParseScheme(r.Scheme); err != nil {
		return Errf(400, "bad_scheme", "%v", err)
	}
	for _, c := range r.Classes {
		if _, err := ParseResolution(c.Resolution); err != nil {
			return Errf(400, "bad_fleet", "class %s: %v", c.Name, err)
		}
		if c.Refresh <= 0 || c.Refresh > MaxRefreshHz {
			return Errf(400, "bad_fleet", "class %s: refresh_hz %d out of range (1..%d)", c.Name, c.Refresh, MaxRefreshHz)
		}
	}
	for _, c := range r.Contents {
		if c.Seconds < 1 || c.Seconds > MaxSeconds {
			return Errf(400, "bad_fleet", "content %s: seconds %d out of range (1..%d)", c.Name, c.Seconds, MaxSeconds)
		}
		if c.Bitrate < 0 || c.Bitrate > 100*1000*units.Mbps {
			return Errf(400, "bad_fleet", "content %s: bitrate_bps %g out of range", c.Name, float64(c.Bitrate))
		}
		if c.VR {
			if _, err := ParseResolution(c.VRSource); err != nil {
				return Errf(400, "bad_fleet", "content %s: %v", c.Name, err)
			}
		}
	}
	pop, err := r.ToPopulation()
	if err != nil {
		return Errf(400, "bad_fleet", "%v", err)
	}
	if err := pop.Validate(); err != nil {
		return Errf(400, "bad_fleet", "%v", err)
	}
	return nil
}

// ToPopulation converts a normalized request into the fleet sampler's
// population spec. Call Normalize first; Validate subsumes this
// conversion's errors.
func (r FleetRequest) ToPopulation() (fleet.Population, error) {
	sch, err := session.ParseScheme(r.Scheme)
	if err != nil {
		return fleet.Population{}, err
	}
	pop := fleet.Population{
		Size:     r.Size,
		Seed:     r.Seed,
		Scheme:   sch,
		Segments: r.Segments,
		Hours:    append([]float64(nil), r.Hours...),
	}
	for _, c := range r.Classes {
		res, err := ParseResolution(c.Resolution)
		if err != nil {
			return fleet.Population{}, fmt.Errorf("class %s: %w", c.Name, err)
		}
		pop.Classes = append(pop.Classes, fleet.Class{
			Name:       c.Name,
			Weight:     c.Weight,
			BatteryMWh: c.BatteryMWh,
			Res:        res,
			Refresh:    c.Refresh,
			PerfScale:  c.PerfScale,
		})
	}
	for _, c := range r.Contents {
		fc := fleet.Content{
			Name:    c.Name,
			Weight:  c.Weight,
			FPS:     c.FPS,
			Seconds: c.Seconds,
			Bitrate: c.Bitrate,
			VR:      c.VR,
		}
		if c.VR {
			src, err := ParseResolution(c.VRSource)
			if err != nil {
				return fleet.Population{}, fmt.Errorf("content %s: %w", c.Name, err)
			}
			fc.VRSource = src
		}
		pop.Contents = append(pop.Contents, fc)
	}
	return pop, nil
}

// CacheKey returns the endpoint-qualified result-cache key (see
// SessionRequest.CacheKey): the key of the population the normalized
// request samples. Stream is not a population field, so a streamed fleet
// run routes to the same owner as its plain twin and warms the same
// node's segment cache.
func (r FleetRequest) CacheKey() string {
	r.Normalize()
	pop, _ := r.ToPopulation() // Validate rejects what this cannot convert
	return memo.KeyOf("v1/fleet", pop)
}

// DecodeFleetRequest strictly decodes, normalizes, and validates a fleet
// request under the same error contract as DecodeSessionRequest.
func DecodeFleetRequest(r io.Reader) (FleetRequest, error) {
	var req FleetRequest
	if err := decodeStrict(r, &req); err != nil {
		return FleetRequest{}, err
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		return FleetRequest{}, err
	}
	return req, nil
}
