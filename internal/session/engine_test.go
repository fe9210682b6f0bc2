package session

import (
	"testing"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/units"
)

// fullExpansion is the oracle the period fold must match: the scheme's
// scheduled period materialized Repeat(frames) long and evaluated phase
// by phase, with no segment cache and no period folding.
func fullExpansion(t *testing.T, p pipeline.Platform, m power.Model, cfg Config) power.Result {
	t.Helper()
	period, err := cfg.Scheme.scheduler()(p, cfg.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	return m.Evaluate(period.Repeat(cfg.Seconds*int(cfg.Scenario.FPS)), power.LoadOf(p, cfg.Scenario))
}

// TestEngineMemoBitIdentical: every (scheme, scenario, length, bitrate)
// cell must produce the exact same Result through the segment cache —
// cold and warm — as the uncached engine, and the same power and energy
// as the full-expansion oracle. Exact equality, not tolerance: the
// server's wire determinism depends on memoization being invisible.
func TestEngineMemoBitIdentical(t *testing.T) {
	p, m := env()
	eng := Engine{P: p, M: m, Memo: memo.NewCache(256)}
	uncached := Engine{P: p, M: m}
	vrScenario := pipeline.Scenario{
		Res:     units.Resolution{Width: 2 * units.VR1080.Width, Height: units.VR1080.Height},
		Refresh: 60, FPS: 60, BPP: 24,
		VR: true, VRSource: units.R4K, MotionFactor: 1.2,
	}
	scenarios := []pipeline.Scenario{
		pipeline.Planar(units.FHD, 60, 30),
		pipeline.Planar(units.R4K, 60, 60),
		vrScenario,
	}
	for _, s := range scenarios {
		for _, sch := range Schemes() {
			for _, sec := range []int{5, 20} {
				for _, br := range []units.DataRate{0, 40 * units.Mbps} {
					cfg := Config{Scenario: s, Scheme: sch, Seconds: sec, Bitrate: br}
					want, err := uncached.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// The full expansion must agree too.
					full := fullExpansion(t, p, m, cfg)
					if full.Average != want.AvgPower || full.Energy != want.Energy {
						t.Fatalf("%v %v %ds: full expansion %v mW/%v mJ != folded %v mW/%v mJ", s, sch, sec,
							float64(full.Average), float64(full.Energy), float64(want.AvgPower), float64(want.Energy))
					}
					// Twice: cold fill then warm hit must both match.
					for pass := 0; pass < 2; pass++ {
						got, err := eng.Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%v %v %ds pass %d: memoized %+v != uncached %+v",
								s, sch, sec, pass, got, want)
						}
					}
				}
			}
		}
	}
	st := eng.Memo.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache never exercised: %+v", st)
	}
}

// TestEngineSegmentSharing pins the axis-sharing contract the sweep
// speedup rests on: cells that differ only in bitrate or length share
// the timeline and power segments, and cells that differ only in scheme
// share the buffer segment.
func TestEngineSegmentSharing(t *testing.T) {
	p, m := env()
	base := Config{Scenario: pipeline.Planar(units.R4K, 60, 60), Scheme: BurstLink, Seconds: 10}

	eng := Engine{P: p, M: m, Memo: memo.NewCache(256)}
	if _, err := eng.Run(base); err != nil {
		t.Fatal(err)
	}
	miss0 := eng.Memo.Stats().Misses

	// Bitrate-only change: buffer segment recomputes, timeline and power
	// segments hit.
	c := base
	c.Bitrate = 80 * units.Mbps
	if _, err := eng.Run(c); err != nil {
		t.Fatal(err)
	}
	if st := eng.Memo.Stats(); st.Misses != miss0+1 {
		t.Fatalf("bitrate change recomputed %d segments, want 1 (%+v)", st.Misses-miss0, st)
	}

	// Length-only change: same — ExtendPeriod refolds the cached period.
	miss0 = eng.Memo.Stats().Misses
	c = base
	c.Seconds = 45
	if _, err := eng.Run(c); err != nil {
		t.Fatal(err)
	}
	if st := eng.Memo.Stats(); st.Misses != miss0+1 {
		t.Fatalf("length change recomputed %d segments, want 1 (%+v)", st.Misses-miss0, st)
	}

	// Scheme-only change: timeline and power recompute, buffer hits.
	miss0 = eng.Memo.Stats().Misses
	hits0 := eng.Memo.Stats().Hits
	c = base
	c.Scheme = Conventional
	if _, err := eng.Run(c); err != nil {
		t.Fatal(err)
	}
	if st := eng.Memo.Stats(); st.Misses != miss0+2 || st.Hits != hits0+1 {
		t.Fatalf("scheme change: misses +%d hits +%d, want +2/+1 (%+v)",
			st.Misses-miss0, st.Hits-hits0, st)
	}
}
