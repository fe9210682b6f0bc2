package api

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"burstlink/internal/fleet"
)

func validFleetRequest() FleetRequest {
	return FleetRequest{
		Size: 30,
		Seed: 7,
		Classes: []FleetClass{
			{Name: "a", Weight: 2, BatteryMWh: 15000, Resolution: "FHD", Refresh: 60},
			{Name: "b", Weight: 1, BatteryMWh: 30000, Resolution: "QHD", Refresh: 60, PerfScale: 1.2},
		},
		Contents: []FleetContent{
			{Name: "x", Weight: 2, FPS: 30, Seconds: 2},
			{Name: "y", Weight: 1, FPS: 60, Seconds: 3},
		},
	}
}

func TestFleetNormalizeDefaults(t *testing.T) {
	r := FleetRequest{Size: 10}
	r.Normalize()
	if r.Scheme != "burstlink" || r.Segments != 2 {
		t.Fatalf("defaults: scheme=%q segments=%d", r.Scheme, r.Segments)
	}
	if len(r.Classes) == 0 || len(r.Contents) == 0 || len(r.Hours) == 0 {
		t.Fatalf("defaults left spec empty: %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("defaulted request invalid: %v", err)
	}
}

// TestFleetCanonicalDefaults pins that elided defaults and spelled-out
// defaults share a key, that Stream does not change it, and that class
// names are keyed as values: a name that spells out a second class does
// not collide with that second class.
func TestFleetCanonicalDefaults(t *testing.T) {
	elided := FleetRequest{Size: 10}
	spelled := FleetRequest{Size: 10}
	spelled.Normalize()
	if elided.CacheKey() != spelled.CacheKey() {
		t.Fatal("elided defaults key differently")
	}
	streamed := FleetRequest{Size: 10, Stream: true}
	if streamed.CacheKey() != elided.CacheKey() {
		t.Fatal("stream flag changed the key")
	}
	other := FleetRequest{Size: 10, Seed: 1}
	if other.CacheKey() == elided.CacheKey() {
		t.Fatal("different seed, same key")
	}

	phone := FleetClass{Name: "phone", Weight: 5, BatteryMWh: 17000, Resolution: "FHD", Refresh: 60, PerfScale: 0.8}
	tablet := FleetClass{Name: "tablet", Weight: 3, BatteryMWh: 38200, Resolution: "QHD", Refresh: 60, PerfScale: 1}
	two := FleetRequest{Size: 10, Classes: []FleetClass{phone, tablet}}
	merged := tablet
	merged.Name = "phone,w=5,bat=17000,res=1920x1080,hz=60,perf=0.8|class=tablet"
	one := FleetRequest{Size: 10, Classes: []FleetClass{merged}}
	if two.CacheKey() == one.CacheKey() {
		t.Fatal("a class name spelling out a second class shares that pair's key")
	}
}

func TestFleetToPopulation(t *testing.T) {
	r := validFleetRequest()
	r.Normalize()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	pop, err := r.ToPopulation()
	if err != nil {
		t.Fatal(err)
	}
	if pop.Size != 30 || pop.Seed != 7 || len(pop.Classes) != 2 || len(pop.Contents) != 2 {
		t.Fatalf("population = %+v", pop)
	}
	if pop.Classes[0].Res.Width != 1920 || pop.Classes[1].PerfScale != 1.2 {
		t.Fatalf("classes = %+v", pop.Classes)
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	// The default wire spec converts back to the reference population.
	var d FleetRequest
	d.Size = 5
	d.Normalize()
	dp, err := d.ToPopulation()
	if err != nil {
		t.Fatal(err)
	}
	ref := fleet.Default()
	if len(dp.Classes) != len(ref.Classes) || dp.Classes[0].Name != ref.Classes[0].Name {
		t.Fatalf("default population = %+v", dp.Classes)
	}
}

func TestFleetValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FleetRequest)
		frag string
	}{
		{"zero size", func(r *FleetRequest) { r.Size = 0 }, "size"},
		{"huge size", func(r *FleetRequest) { r.Size = MaxFleetSize + 1 }, "size"},
		{"bad scheme", func(r *FleetRequest) { r.Scheme = "warp-drive" }, "scheme"},
		{"bad resolution", func(r *FleetRequest) { r.Classes[0].Resolution = "huge" }, "resolution"},
		{"bad refresh", func(r *FleetRequest) { r.Classes[0].Refresh = 1000 }, "refresh"},
		{"fps refresh mismatch", func(r *FleetRequest) { r.Contents[0].FPS = 45 }, "multiple"},
		{"long seconds", func(r *FleetRequest) { r.Contents[0].Seconds = MaxSeconds + 1 }, "seconds"},
		{"too many segments", func(r *FleetRequest) { r.Segments = MaxFleetSegments + 1 }, "segments"},
		{"huge hour", func(r *FleetRequest) { r.Hours = []float64{30} }, "hour"},
		{"vr without source", func(r *FleetRequest) { r.Contents[0].VR = true }, "resolution"},
		{"zero weight", func(r *FleetRequest) { r.Classes[0].Weight = 0 }, "weight"},
		{"weight overflow", func(r *FleetRequest) { r.Classes[0].Weight, r.Classes[1].Weight = math.MaxInt, 1 }, "bad_fleet: fleet: class weights total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validFleetRequest()
			r.Normalize()
			tc.mut(&r)
			err := r.Validate()
			if err == nil {
				t.Fatal("invalid request accepted")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestDecodeFleetRequest(t *testing.T) {
	good := `{"size": 10, "seed": 3}`
	req, err := DecodeFleetRequest(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if req.Size != 10 || req.Seed != 3 || req.Scheme != "burstlink" {
		t.Fatalf("decoded = %+v", req)
	}
	for _, bad := range []string{
		`{"size": 10, "unknown_field": 1}`,
		`{"size": 0}`,
		`{"size": 10}{"size": 11}`,
		`not json`,
	} {
		if _, err := DecodeFleetRequest(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
