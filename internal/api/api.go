// Package api defines the versioned JSON wire contract of blkd, the
// BurstLink simulation service: request and response types, the strict
// decoders the server trusts at its edge, and the request keys of the
// scenario result cache. It also ships a typed HTTP client (client.go)
// and a closed-loop load generator (load.go) so downstream consumers and
// the benchmark harness speak the same contract the server does.
//
// The keys are load-bearing: each request type renders its normalized
// form through an AppendKey method into a memo.KeyWriter, the same
// discipline (and the same memokeycheck analyzer) that keys the segment
// cache, and CacheKey is memo.KeyOf over it. Two requests that describe
// the same response — whatever their JSON field order, whitespace, or
// defaulted fields — share a key, and every field a response depends on
// is written into it. Because every simulation in this repository is a
// pure function of its inputs (the determinism suite enforces this), a
// cache hit returns a byte-identical response to a fresh execution.
package api

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/session"
	"burstlink/internal/units"
)

// Limits the validators enforce so a single request cannot occupy the
// service unboundedly.
const (
	MaxSeconds   = 3600 // one hour of simulated playback per session
	MaxDimension = 8192 // pixels per axis
	MaxRefreshHz = 480
	MaxSweepSize = 4096 // expanded cells per sweep
)

// Error is the service's structured error: a machine-readable code and
// message, carried under an HTTP status. All decoder and validation
// failures surface as *Error with Status 400 — never a panic — which the
// fuzz target pins.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errf builds an *Error.
func Errf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// errorEnvelope is the JSON body carrying an Error on the wire.
type errorEnvelope struct {
	Error *Error `json:"error"`
}

// EncodeError marshals err into the wire envelope.
func EncodeError(err *Error) []byte {
	b, mErr := json.Marshal(errorEnvelope{Error: err})
	if mErr != nil {
		// An Error is two strings; Marshal cannot fail on it.
		return []byte(`{"error":{"code":"internal","message":"error encoding failed"}}`)
	}
	return b
}

// SessionRequest asks for one streaming session (POST /v1/session):
// network delivery into the jitter buffer, playback under a display
// scheme, and the analytical power model pricing the run.
type SessionRequest struct {
	// Scheme is a canonical session scheme name: "conventional",
	// "burst-only", "bypass-only", or "burstlink".
	Scheme string `json:"scheme"`
	// Resolution is a panel resolution: "FHD", "QHD", "4K", "5K", or
	// an explicit "WIDTHxHEIGHT".
	Resolution string            `json:"resolution"`
	Refresh    units.RefreshRate `json:"refresh_hz"`
	FPS        units.FPS         `json:"fps"`
	// BPP defaults to 24.
	BPP int `json:"bpp,omitempty"`
	// Seconds of simulated playback, 1..MaxSeconds.
	Seconds int `json:"seconds"`
	// Bitrate of the encoded stream in bits/s; 0 derives it from the
	// platform's encoded-frame model.
	Bitrate units.DataRate `json:"bitrate_bps,omitempty"`
	// PrebufferFrames is the startup buffer depth; 0 means one second.
	PrebufferFrames int `json:"prebuffer_frames,omitempty"`
	// VR marks a 360° workload decoded from VRSource then projected.
	VR bool `json:"vr,omitempty"`
	// VRSource is the equirectangular source resolution (required iff VR).
	VRSource string `json:"vr_source,omitempty"`
	// MotionFactor scales GPU effort with head motion; defaults to 1.
	MotionFactor float64 `json:"motion_factor,omitempty"`
}

// SessionResponse reports a session outcome. Fields use the model's
// native units: power in mW, energy in mJ, durations in ns, traffic in
// bytes per second of playback.
type SessionResponse struct {
	Scheme      string         `json:"scheme"`
	Frames      int            `json:"frames"`
	Stalls      int            `json:"stalls"`
	AvgPower    units.Power    `json:"avg_power_mw"`
	Energy      units.Energy   `json:"energy_mj"`
	BatteryLife time.Duration  `json:"battery_life_ns"`
	DRAMRead    units.ByteSize `json:"dram_read_bytes_per_s"`
	DRAMWrite   units.ByteSize `json:"dram_write_bytes_per_s"`
	BufferPeak  units.ByteSize `json:"buffer_peak_bytes"`
}

// SweepRequest fans one parameter sweep out over the scheme × resolution
// × fps cross product (POST /v1/sweep). Axis order is preserved: results
// arrive in the exact nesting order schemes → resolutions → fps.
type SweepRequest struct {
	// Schemes defaults to all four display schemes.
	Schemes []string `json:"schemes,omitempty"`
	// Resolutions is the panel resolutions to sweep (required).
	Resolutions []string `json:"resolutions"`
	// FPS values to sweep (required).
	FPS     []units.FPS       `json:"fps"`
	Refresh units.RefreshRate `json:"refresh_hz"`
	Seconds int               `json:"seconds"`
	Bitrate units.DataRate    `json:"bitrate_bps,omitempty"`
}

// SweepCell is one point of a sweep: the cell coordinates plus the
// session result, embedded raw so a cell served from the scenario cache
// is byte-identical to a freshly computed one.
type SweepCell struct {
	Scheme     string          `json:"scheme"`
	Resolution string          `json:"resolution"`
	FPS        units.FPS       `json:"fps"`
	Result     json.RawMessage `json:"result"`
}

// SweepResponse carries the sweep results in cross-product order.
type SweepResponse struct {
	Cells []SweepCell `json:"cells"`
}

// Stats is the service's observable state (GET /v1/stats). Node
// identifies the reporting instance so cluster tooling can attribute
// per-node counters; InFlight and Queued are instantaneous occupancy
// (MaxInFlight is the high-water mark).
//
// Both caches count the same way: every lookup counts exactly one of
// hits, misses or coalesced. A miss is a computation, whether it
// failed or not (errors are never cached); coalesced counts lookups
// that waited for an identical in-flight computation. HitRatio and
// SegmentHitRatio are (hits+coalesced)/(hits+misses+coalesced).
type Stats struct {
	Node          string  `json:"node,omitempty"`
	Requests      uint64  `json:"requests"`
	Rejected      uint64  `json:"rejected"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	Coalesced     uint64  `json:"coalesced"`
	CacheEntries  int     `json:"cache_entries"`
	CacheCapacity int     `json:"cache_capacity"`
	HitRatio      float64 `json:"hit_ratio"`
	InFlight      int     `json:"in_flight"`
	Queued        int     `json:"queued"`
	MaxInFlight   int     `json:"max_in_flight"`
	// Segment* expose the delta-simulation segment cache that sits under
	// the result cache: per-segment (buffer / timeline / power-period)
	// hits, misses, evictions, and coalesced lookups.
	SegmentHits      uint64  `json:"segment_hits"`
	SegmentMisses    uint64  `json:"segment_misses"`
	SegmentEvictions uint64  `json:"segment_evictions"`
	SegmentCoalesced uint64  `json:"segment_coalesced"`
	SegmentEntries   int     `json:"segment_entries"`
	SegmentCapacity  int     `json:"segment_capacity"`
	SegmentHitRatio  float64 `json:"segment_hit_ratio"`
}

// Health is one node's liveness and load document (GET /v1/health): the
// node id plus the instantaneous occupancy a router or balancer would
// steer on. Fill ratios are entries over capacity.
type Health struct {
	Node           string  `json:"node"`
	Status         string  `json:"status"`
	InFlight       int     `json:"in_flight"`
	Queued         int     `json:"queued"`
	CacheEntries   int     `json:"cache_entries"`
	CacheFill      float64 `json:"cache_fill"`
	SegmentEntries int     `json:"segment_entries"`
	SegmentFill    float64 `json:"segment_fill"`
}

// NodeCount is one node's share of a per-node counter, carried as an
// ordered slice (ring order) rather than a map so the wire form is
// deterministic.
type NodeCount struct {
	Node     string `json:"node"`
	Requests uint64 `json:"requests"`
}

// ClusterStats is the router's aggregate view (GET /v1/stats on a
// routing blkd): the requests it forwarded per backend, in ring order,
// plus each backend's own Stats document.
type ClusterStats struct {
	Router    string      `json:"router"`
	Requests  uint64      `json:"requests"`
	Forwarded []NodeCount `json:"forwarded"`
	Nodes     []Stats     `json:"nodes"`
}

// ClusterHealth is the router's aggregate health (GET /v1/health on a
// routing blkd). Status is "ok" only when every backend probed ok.
type ClusterHealth struct {
	Router string   `json:"router"`
	Status string   `json:"status"`
	Nodes  []Health `json:"nodes"`
}

// ExperimentList is the catalogue served at GET /v1/exp.
type ExperimentList struct {
	Experiments []string `json:"experiments"`
}

// CacheStatus classifies how a response was produced, carried in the
// X-Cache response header.
type CacheStatus string

// Cache statuses.
const (
	CacheHit       CacheStatus = "hit"       // served from the result cache
	CacheMiss      CacheStatus = "miss"      // freshly executed
	CacheCoalesced CacheStatus = "coalesced" // attached to an identical in-flight execution
)

// CacheHeader is the response header carrying the CacheStatus.
const CacheHeader = "X-Cache"

// ParseResolution accepts the named panel resolutions or an explicit
// "WIDTHxHEIGHT" form.
func ParseResolution(s string) (units.Resolution, error) {
	switch strings.ToUpper(s) {
	case "FHD":
		return units.FHD, nil
	case "QHD":
		return units.QHD, nil
	case "4K":
		return units.R4K, nil
	case "5K":
		return units.R5K, nil
	}
	ws, hs, ok := strings.Cut(s, "x")
	if !ok {
		return units.Resolution{}, fmt.Errorf("bad resolution %q (want FHD, QHD, 4K, 5K, or WIDTHxHEIGHT)", s)
	}
	w, werr := strconv.Atoi(ws)
	h, herr := strconv.Atoi(hs)
	if werr != nil || herr != nil {
		return units.Resolution{}, fmt.Errorf("bad resolution %q (want FHD, QHD, 4K, 5K, or WIDTHxHEIGHT)", s)
	}
	if w <= 0 || h <= 0 || w > MaxDimension || h > MaxDimension {
		return units.Resolution{}, fmt.Errorf("resolution %q out of range (1..%d per axis)", s, MaxDimension)
	}
	return units.Resolution{Width: w, Height: h}, nil
}

// Normalize fills defaulted fields in place so that requests differing
// only in elided defaults share a key.
func (r *SessionRequest) Normalize() {
	if r.BPP == 0 {
		r.BPP = 24
	}
	if r.PrebufferFrames == 0 {
		r.PrebufferFrames = int(r.FPS)
	}
	if r.VR && r.MotionFactor == 0 {
		r.MotionFactor = 1
	}
	if !r.VR {
		r.VRSource = ""
		r.MotionFactor = 0
	}
}

// Validate checks the normalized request against the service limits,
// returning a 400 *Error describing the first violation.
func (r *SessionRequest) Validate() error {
	if _, err := session.ParseScheme(r.Scheme); err != nil {
		return Errf(400, "bad_scheme", "%v", err)
	}
	if _, err := ParseResolution(r.Resolution); err != nil {
		return Errf(400, "bad_resolution", "%v", err)
	}
	if r.Refresh <= 0 || r.Refresh > MaxRefreshHz {
		return Errf(400, "bad_refresh", "refresh_hz %d out of range (1..%d)", r.Refresh, MaxRefreshHz)
	}
	if r.FPS <= 0 {
		return Errf(400, "bad_fps", "fps %d must be positive", r.FPS)
	}
	if int(r.Refresh)%int(r.FPS) != 0 {
		return Errf(400, "bad_fps", "refresh_hz %d is not a multiple of fps %d", r.Refresh, r.FPS)
	}
	if r.BPP < 0 || r.BPP > 64 {
		return Errf(400, "bad_bpp", "bpp %d out of range (1..64)", r.BPP)
	}
	if r.Seconds < 1 || r.Seconds > MaxSeconds {
		return Errf(400, "bad_seconds", "seconds %d out of range (1..%d)", r.Seconds, MaxSeconds)
	}
	if r.Bitrate < 0 || r.Bitrate > 100*1000*units.Mbps {
		return Errf(400, "bad_bitrate", "bitrate_bps %g out of range", float64(r.Bitrate))
	}
	if r.PrebufferFrames < 0 || r.PrebufferFrames > int(r.FPS)*MaxSeconds {
		return Errf(400, "bad_prebuffer", "prebuffer_frames %d out of range", r.PrebufferFrames)
	}
	if r.VR {
		if _, err := ParseResolution(r.VRSource); err != nil {
			return Errf(400, "bad_vr_source", "%v", err)
		}
	}
	if r.MotionFactor < 0 || r.MotionFactor > 16 {
		return Errf(400, "bad_motion_factor", "motion_factor %g out of range (0..16)", r.MotionFactor)
	}
	return nil
}

// AppendKey renders the normalized request into its result-cache key:
// the scheme, the simulated scenario, and the run parameters. A named
// resolution and its WIDTHxHEIGHT spelling share a key, because a
// session body does not echo the resolution.
func (r SessionRequest) AppendKey(w *memo.KeyWriter) {
	r.Normalize()
	res, _ := ParseResolution(r.Resolution)
	src, _ := ParseResolution(r.VRSource) // zero unless VR
	w.String("scheme", r.Scheme)
	w.Sub("scenario", pipeline.Scenario{
		Res: res, Refresh: r.Refresh, FPS: r.FPS, BPP: r.BPP,
		VR: r.VR, VRSource: src, MotionFactor: r.MotionFactor,
	})
	w.Int("seconds", int64(r.Seconds))
	w.Float("bps", float64(r.Bitrate))
	w.Int("prebuffer", int64(r.PrebufferFrames))
}

// CacheKey returns the endpoint-qualified result-cache key the server
// files this request under. It is the shared routing vocabulary: the
// cluster ring hashes these exact strings, so the router and the server
// agree on which node owns a scenario.
func (r SessionRequest) CacheKey() string { return memo.KeyOf("v1/session", r) }

// ToConfig converts a validated request into the session runner's
// config. Call Normalize and Validate first.
func (r SessionRequest) ToConfig() (session.Config, error) {
	sch, err := session.ParseScheme(r.Scheme)
	if err != nil {
		return session.Config{}, err
	}
	res, err := ParseResolution(r.Resolution)
	if err != nil {
		return session.Config{}, err
	}
	s := pipeline.Scenario{Res: res, Refresh: r.Refresh, FPS: r.FPS, BPP: r.BPP}
	if r.VR {
		src, err := ParseResolution(r.VRSource)
		if err != nil {
			return session.Config{}, err
		}
		s.VR = true
		s.VRSource = src
		s.MotionFactor = r.MotionFactor
	}
	return session.Config{
		Scenario:        s,
		Scheme:          sch,
		Seconds:         r.Seconds,
		Bitrate:         r.Bitrate,
		PrebufferFrames: r.PrebufferFrames,
	}, nil
}

// Normalize fills the sweep's defaulted axes. The default scheme axis is
// a fresh slice, never the caller's spare capacity, so keying a copy of
// a request leaves the original untouched.
func (r *SweepRequest) Normalize() {
	if len(r.Schemes) == 0 {
		schemes := session.Schemes()
		r.Schemes = make([]string, len(schemes))
		for i, sch := range schemes {
			r.Schemes[i] = sch.String()
		}
	}
}

// Validate checks the normalized sweep, including the expanded size cap.
func (r *SweepRequest) Validate() error {
	if len(r.Resolutions) == 0 {
		return Errf(400, "bad_sweep", "resolutions must be non-empty")
	}
	if len(r.FPS) == 0 {
		return Errf(400, "bad_sweep", "fps must be non-empty")
	}
	cells := len(r.Schemes) * len(r.Resolutions) * len(r.FPS)
	if cells > MaxSweepSize {
		return Errf(400, "bad_sweep", "sweep expands to %d cells, limit %d", cells, MaxSweepSize)
	}
	for _, cell := range r.Expand() {
		cell.Normalize()
		if err := cell.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Expand returns the sweep's session requests in cross-product order
// (schemes → resolutions → fps). Call Normalize first.
func (r SweepRequest) Expand() []SessionRequest {
	cells := make([]SessionRequest, 0, len(r.Schemes)*len(r.Resolutions)*len(r.FPS))
	for _, sch := range r.Schemes {
		for _, res := range r.Resolutions {
			for _, fps := range r.FPS {
				cells = append(cells, SessionRequest{
					Scheme:     sch,
					Resolution: res,
					Refresh:    r.Refresh,
					FPS:        fps,
					Seconds:    r.Seconds,
					Bitrate:    r.Bitrate,
				})
			}
		}
	}
	return cells
}

// AppendKey renders the normalized sweep into its result-cache key: the
// axes as spelled and in order, because the body echoes each cell's
// scheme and resolution string and returns the cells in axis order,
// plus the parameters every cell shares. Each element carries its axis
// tag, so the sequence needs no counts.
func (r SweepRequest) AppendKey(w *memo.KeyWriter) {
	r.Normalize()
	for _, sch := range r.Schemes {
		w.String("scheme", sch)
	}
	for _, res := range r.Resolutions {
		w.String("resolution", res)
	}
	for _, fps := range r.FPS {
		w.Int("fps", int64(fps))
	}
	w.Int("hz", int64(r.Refresh))
	w.Int("seconds", int64(r.Seconds))
	w.Float("bps", float64(r.Bitrate))
}

// CacheKey returns the endpoint-qualified result-cache key (see
// SessionRequest.CacheKey). A sweep routes as one unit: its cells share
// the owning node's session cache under their own session keys, so
// overlapping or respelled sweeps still share results cell by cell.
func (r SweepRequest) CacheKey() string { return memo.KeyOf("v1/sweep", r) }

// ExpCacheKey returns the result-cache key of GET /v1/exp/{id}.
func ExpCacheKey(id string) string { return "v1/exp:" + id }

// maxBodyBytes bounds a decoded request body.
const maxBodyBytes = 1 << 20

// decodeStrict decodes exactly one JSON value into dst, rejecting
// unknown fields, trailing garbage, and oversized bodies.
func decodeStrict(r io.Reader, dst any) *Error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return Errf(400, "bad_json", "decoding request: %v", err)
	}
	if dec.More() {
		return Errf(400, "bad_json", "trailing data after JSON request")
	}
	return nil
}

// DecodeSessionRequest strictly decodes, normalizes, and validates a
// session request. Any failure is a 400 *Error; malformed input never
// panics (pinned by FuzzAPIDecodeRequest).
func DecodeSessionRequest(r io.Reader) (SessionRequest, error) {
	var req SessionRequest
	if err := decodeStrict(r, &req); err != nil {
		return SessionRequest{}, err
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		return SessionRequest{}, err
	}
	return req, nil
}

// DecodeSweepRequest strictly decodes, normalizes, and validates a sweep
// request under the same error contract as DecodeSessionRequest.
func DecodeSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		return SweepRequest{}, err
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		return SweepRequest{}, err
	}
	return req, nil
}
