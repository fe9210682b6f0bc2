package api

import (
	"reflect"
	"sync"
	"testing"

	"burstlink/internal/units"
)

// TestKeyingLeavesRequestUntouched keys hand-built requests from two
// goroutines at once and checks each request, spare slice capacity
// included, against a deep copy taken beforehand: CacheKey normalizes a
// copy of its receiver and must never write through the caller's backing
// arrays (a class's defaulted perf_scale, a non-VR content's vr_source,
// the default scheme axis appended into spare capacity). Under -race the
// two goroutines also catch any such write as a data race.
func TestKeyingLeavesRequestUntouched(t *testing.T) {
	sess := SessionRequest{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 10}
	sweep := SweepRequest{Schemes: make([]string, 0, 8), Resolutions: []string{"FHD", "4K"}, FPS: []units.FPS{30}, Refresh: 60, Seconds: 10}
	fleet := FleetRequest{
		Size: 100, Seed: 1,
		Classes: []FleetClass{{Name: "tablet", Weight: 1, BatteryMWh: 30000, Resolution: "FHD", Refresh: 60}},
		Contents: []FleetContent{
			{Name: "film", Weight: 1, FPS: 30, Seconds: 10, VRSource: "4K"},
		},
	}
	cases := []struct {
		name string
		key  func() string
		// state deep-copies everything keying could write, including the
		// spare capacity of the request's slices.
		state func() any
	}{
		{"session", sess.CacheKey, func() any { return sess }},
		{"sweep", sweep.CacheKey, func() any {
			return [][]string{
				append([]string(nil), sweep.Schemes[:cap(sweep.Schemes)]...),
				append([]string(nil), sweep.Resolutions[:cap(sweep.Resolutions)]...),
			}
		}},
		{"fleet", fleet.CacheKey, func() any {
			return []any{
				append([]FleetClass(nil), fleet.Classes[:cap(fleet.Classes)]...),
				append([]FleetContent(nil), fleet.Contents[:cap(fleet.Contents)]...),
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := c.state()
			keys := make([]string, 2)
			var wg sync.WaitGroup
			for g := range keys {
				wg.Add(1)
				go func() {
					defer wg.Done()
					keys[g] = c.key()
				}()
			}
			wg.Wait()
			if keys[0] != keys[1] {
				t.Errorf("concurrent keys differ: %q vs %q", keys[0], keys[1])
			}
			if after := c.state(); !reflect.DeepEqual(after, before) {
				t.Errorf("keying changed the request:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}
