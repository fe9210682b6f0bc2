package api

import (
	"strings"
	"testing"
	"time"

	"burstlink/internal/units"
)

func validRequest() SessionRequest {
	return SessionRequest{
		Scheme:     "burstlink",
		Resolution: "FHD",
		Refresh:    60,
		FPS:        30,
		Seconds:    5,
	}
}

func TestParseResolution(t *testing.T) {
	cases := []struct {
		in   string
		want units.Resolution
		ok   bool
	}{
		{"FHD", units.FHD, true},
		{"fhd", units.FHD, true},
		{"QHD", units.QHD, true},
		{"4K", units.R4K, true},
		{"5k", units.R5K, true},
		{"1280x720", units.Resolution{Width: 1280, Height: 720}, true},
		{"10x10", units.Resolution{Width: 10, Height: 10}, true},
		{"", units.Resolution{}, false},
		{"huge", units.Resolution{}, false},
		{"10x", units.Resolution{}, false},
		{"x10", units.Resolution{}, false},
		{"10x10x10", units.Resolution{}, false}, // "10x10" would be ambiguous canonicalization
		{"10x10abc", units.Resolution{}, false},
		{"-1x10", units.Resolution{}, false},
		{"0x10", units.Resolution{}, false},
		{"9000x10", units.Resolution{}, false}, // above MaxDimension
	}
	for _, c := range cases {
		got, err := ParseResolution(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseResolution(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseResolution(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestCanonicalEquivalence pins the property the cache rests on: requests
// describing the same scenario — elided defaults, spelled-out defaults,
// named vs explicit resolutions — share one key, and every field the
// response depends on moves it.
func TestCanonicalEquivalence(t *testing.T) {
	base := validRequest()

	spelled := base
	spelled.BPP = 24
	spelled.PrebufferFrames = 30
	if base.CacheKey() != spelled.CacheKey() {
		t.Error("defaults changed the cache key")
	}

	explicit := base
	explicit.Resolution = "1920x1080"
	if base.CacheKey() != explicit.CacheKey() {
		t.Error("FHD and 1920x1080 key differently")
	}

	// Non-VR requests ignore VR-only fields entirely.
	noisy := base
	noisy.VRSource = "4K"
	noisy.MotionFactor = 3
	if base.CacheKey() != noisy.CacheKey() {
		t.Error("VR fields leaked into a non-VR key")
	}

	vr := validRequest()
	vr.VR, vr.VRSource = true, "4K"
	// Every distinguishing field moves the key.
	for _, c := range []struct {
		name string
		base SessionRequest
		mut  func(*SessionRequest)
	}{
		{"scheme", base, func(r *SessionRequest) { r.Scheme = "conventional" }},
		{"resolution", base, func(r *SessionRequest) { r.Resolution = "QHD" }},
		{"refresh", base, func(r *SessionRequest) { r.Refresh = 120 }},
		{"fps", base, func(r *SessionRequest) { r.FPS = 60 }},
		{"bpp", base, func(r *SessionRequest) { r.BPP = 30 }},
		{"seconds", base, func(r *SessionRequest) { r.Seconds = 6 }},
		{"bitrate", base, func(r *SessionRequest) { r.Bitrate = 40 * units.Mbps }},
		{"prebuffer", base, func(r *SessionRequest) { r.PrebufferFrames = 7 }},
		{"vr", base, func(r *SessionRequest) { r.VR = true; r.VRSource = "4K" }},
		{"motion_factor", vr, func(r *SessionRequest) { r.MotionFactor = 2 }},
		{"vr_source", vr, func(r *SessionRequest) { r.VRSource = "5K" }},
	} {
		mod := c.base
		c.mut(&mod)
		if mod.CacheKey() == c.base.CacheKey() {
			t.Errorf("changing %s did not change the cache key", c.name)
		}
	}
}

func TestSweepCanonical(t *testing.T) {
	a := SweepRequest{Resolutions: []string{"FHD"}, FPS: []units.FPS{30}, Refresh: 60, Seconds: 5}
	b := a
	b.Schemes = []string{"conventional", "burst-only", "bypass-only", "burstlink"}
	if a.CacheKey() != b.CacheKey() {
		t.Error("defaulted schemes and spelled-out schemes should share a key")
	}
	// Axis order is part of the identity: results come back in axis
	// order, so a reordered sweep is a different response.
	c := b
	c.Schemes = []string{"burstlink", "conventional", "burst-only", "bypass-only"}
	if b.CacheKey() == c.CacheKey() {
		t.Error("reordered axes must not share a key")
	}
	// Cells echo the resolution as spelled, so a respelled resolution is
	// a different sweep body, while each cell is the same session.
	d := b
	d.Resolutions = []string{"1920x1080"}
	if b.CacheKey() == d.CacheKey() {
		t.Error("FHD and 1920x1080 sweeps must not share a key")
	}
	b.Normalize()
	d.Normalize()
	bc, dc := b.Expand(), d.Expand()
	for i := range bc {
		if bc[i].CacheKey() != dc[i].CacheKey() {
			t.Errorf("cell %d: respelled resolution changed the session key", i)
		}
	}
	// Every other field moves the key.
	for name, mut := range map[string]func(*SweepRequest){
		"fps":     func(r *SweepRequest) { r.FPS = []units.FPS{60} },
		"refresh": func(r *SweepRequest) { r.Refresh = 120 },
		"seconds": func(r *SweepRequest) { r.Seconds = 6 },
		"bitrate": func(r *SweepRequest) { r.Bitrate = 40 * units.Mbps },
	} {
		mod := a
		mut(&mod)
		if mod.CacheKey() == a.CacheKey() {
			t.Errorf("changing %s did not change the sweep key", name)
		}
	}
}

func TestDecodeSessionRequestStrictness(t *testing.T) {
	good := `{"scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":5}`
	req, err := DecodeSessionRequest(strings.NewReader(good))
	if err != nil {
		t.Fatalf("good request rejected: %v", err)
	}
	if req.BPP != 24 || req.PrebufferFrames != 30 {
		t.Errorf("defaults not applied: %+v", req)
	}

	bads := map[string]string{
		"unknown field":    `{"scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":5,"nope":1}`,
		"trailing garbage": good + `{"x":1}`,
		"wrong type":       `{"scheme":42}`,
		"array":            `[1,2,3]`,
		"not json":         `garbage`,
		"empty":            ``,
		"huge body":        `{"scheme":"` + strings.Repeat("a", 2<<20) + `"}`,
		"bad scheme":       `{"scheme":"x","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":5}`,
		"fps mismatch":     `{"scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":7,"seconds":5}`,
	}
	for name, in := range bads {
		_, err := DecodeSessionRequest(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		aerr, ok := err.(*Error)
		if !ok || aerr.Status != 400 || aerr.Code == "" {
			t.Errorf("%s: error is not a structured 400: %#v", name, err)
		}
	}
}

func TestDecodeSweepRequest(t *testing.T) {
	good := `{"resolutions":["FHD"],"fps":[30,60],"refresh_hz":60,"seconds":5}`
	req, err := DecodeSweepRequest(strings.NewReader(good))
	if err != nil {
		t.Fatalf("good sweep rejected: %v", err)
	}
	if len(req.Schemes) != 4 || len(req.Expand()) != 8 {
		t.Errorf("sweep normalization: %+v", req)
	}

	for name, in := range map[string]string{
		"no resolutions": `{"fps":[30],"refresh_hz":60,"seconds":5}`,
		"no fps":         `{"resolutions":["FHD"],"refresh_hz":60,"seconds":5}`,
		"bad cell":       `{"resolutions":["FHD"],"fps":[7],"refresh_hz":60,"seconds":5}`,
		"unknown field":  `{"resolutions":["FHD"],"fps":[30],"refresh_hz":60,"seconds":5,"z":1}`,
	} {
		_, err := DecodeSweepRequest(strings.NewReader(in))
		aerr, ok := err.(*Error)
		if !ok || aerr.Status != 400 {
			t.Errorf("%s: error = %#v, want structured 400", name, err)
		}
	}
}

// TestScheduleDeterminism pins that the load schedule is a pure function
// of its options and that its duplicate structure matches DupRate.
func TestScheduleDeterminism(t *testing.T) {
	opts := LoadOptions{Requests: 2000, DupRate: 0.5, Seed: 7}
	a := Schedule(opts)
	b := Schedule(opts)
	if len(a) != 2000 {
		t.Fatalf("schedule length = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d", i)
		}
	}
	// A different seed reshuffles.
	c := Schedule(LoadOptions{Requests: 2000, DupRate: 0.5, Seed: 8})
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}

	// Duplicate fraction tracks DupRate: every request is either the
	// first occurrence of its canonical form or an exact duplicate.
	seen := map[string]bool{}
	dups := 0
	for _, r := range a {
		k := r.CacheKey()
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	frac := float64(dups) / float64(len(a))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("duplicate fraction = %.2f, want ≈0.5", frac)
	}

	// Scheduled requests are all valid as-is.
	for i, r := range a[:64] {
		r.Normalize()
		if err := r.Validate(); err != nil {
			t.Fatalf("scheduled request %d invalid: %v", i, err)
		}
	}
}

// TestUniqueRequestDistinct pins the mixed-radix enumeration: distinct
// indices must yield distinct scenarios, or the measured hit ratio would
// silently exceed the configured DupRate.
func TestUniqueRequestDistinct(t *testing.T) {
	keys := map[string]int{}
	for j := 0; j < 4096; j++ {
		k := uniqueRequest(j).CacheKey()
		if prev, ok := keys[k]; ok {
			t.Fatalf("uniqueRequest(%d) collides with uniqueRequest(%d)", j, prev)
		}
		keys[k] = j
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(lat, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(lat, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := percentile(lat, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
}

func TestRunLoadRequiresClock(t *testing.T) {
	_, err := RunLoad(nil, NewClient("http://127.0.0.1:0"), LoadOptions{})
	if err == nil || !strings.Contains(err.Error(), "Now is required") {
		t.Fatalf("err = %v, want missing-clock error", err)
	}
}

func TestErrorEncoding(t *testing.T) {
	e := Errf(400, "bad_thing", "field %d broke", 7)
	if e.Status != 400 || e.Code != "bad_thing" {
		t.Fatalf("Errf = %#v", e)
	}
	b := EncodeError(e)
	want := `{"error":{"code":"bad_thing","message":"field 7 broke"}}`
	if string(b) != want {
		t.Errorf("EncodeError = %s, want %s", b, want)
	}
}
