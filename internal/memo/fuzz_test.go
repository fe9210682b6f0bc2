package memo_test

import (
	"math"
	"testing"
	"time"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// FuzzSegmentKey fuzzes the canonicalization contract the segment cache
// stands on, over a real segment input (trace.Phase, the leaf of every
// timeline key): two structs built from the same values key identically,
// and mutating any single field changes the key. A violation of the
// first half makes the cache useless (spurious misses); a violation of
// the second half is a stale-cache correctness bug.
func FuzzSegmentKey(f *testing.F) {
	f.Add(int8(0), int64(16_666_666), uint64(1<<20), uint64(2<<20), true, false, 1.5, "blit", uint8(0))
	f.Add(int8(3), int64(0), uint64(0), uint64(0), false, true, 0.0, "", uint8(4))
	f.Add(int8(-1), int64(-5), uint64(1), uint64(1), true, true, math.Inf(1), "x", uint8(7))
	f.Fuzz(func(t *testing.T, state int8, dur int64, read, write uint64, burst, gpu bool, boost float64, label string, mut uint8) {
		mk := func(p trace.Phase) string { return memo.KeyOf("phase", p) }
		p := trace.Phase{
			State:     soc.PackageCState(state),
			Duration:  time.Duration(dur),
			DRAMRead:  units.ByteSize(read),
			DRAMWrite: units.ByteSize(write),
			EDPBurst:  burst,
			GPUActive: gpu,
			Boost:     boost,
			Label:     label,
		}
		// Semantic equality → key equality: an independently built copy
		// keys identically.
		q := trace.Phase{
			State:     soc.PackageCState(state),
			Duration:  time.Duration(dur),
			DRAMRead:  units.ByteSize(read),
			DRAMWrite: units.ByteSize(write),
			EDPBurst:  burst,
			GPUActive: gpu,
			Boost:     boost,
			Label:     label,
		}
		base := mk(p)
		if base != mk(q) {
			t.Fatalf("equal phases keyed differently")
		}
		// Field sensitivity: mutate exactly one field, in a way that is
		// guaranteed to change its canonical representation, and require
		// the key to move.
		switch mut % 8 {
		case 0:
			q.State++
		case 1:
			q.Duration = ^q.Duration
		case 2:
			q.DRAMRead++
		case 3:
			q.DRAMWrite++
		case 4:
			q.EDPBurst = !q.EDPBurst
		case 5:
			q.GPUActive = !q.GPUActive
		case 6:
			// Flip one mantissa bit: always a distinct bit pattern, which
			// is the float key's unit of distinction.
			q.Boost = math.Float64frombits(math.Float64bits(q.Boost) ^ 1)
		case 7:
			q.Label += "x"
		}
		if mk(q) == base {
			t.Fatalf("mutating field %d did not change key", mut%8)
		}

		// The same contract one level up: a timeline key must be
		// sensitive to phase order and count.
		tl1 := trace.Timeline{Phases: []trace.Phase{p, q}}
		tl2 := trace.Timeline{Phases: []trace.Phase{q, p}}
		if memo.KeyOf("tl", tl1) == memo.KeyOf("tl", tl2) {
			t.Fatal("phase order not keyed")
		}
		tl3 := trace.Timeline{Phases: []trace.Phase{p, q, p}}
		if memo.KeyOf("tl", tl1) == memo.KeyOf("tl", tl3) {
			t.Fatal("phase count not keyed")
		}
	})
}

// FuzzScenarioKey does the same for pipeline.Scenario, the scenario half
// of the timeline segment input and of every session request key:
// independently built equal scenarios key identically and each knob
// moves the key.
func FuzzScenarioKey(f *testing.F) {
	f.Add(1920, 1080, uint8(60), uint8(30), false, 1.0, uint8(0))
	f.Add(3840, 2160, uint8(120), uint8(60), true, 1.75, uint8(5))
	f.Add(2560, 1440, uint8(90), uint8(45), true, 2.0, uint8(6))
	f.Add(2560, 1440, uint8(90), uint8(45), true, 2.0, uint8(7))
	f.Fuzz(func(t *testing.T, w, h int, hz, fps uint8, vr bool, mf float64, mut uint8) {
		mk := func(s pipeline.Scenario) string { return memo.KeyOf("scenario", s) }
		build := func() pipeline.Scenario {
			return pipeline.Scenario{
				Res:          units.Resolution{Width: w, Height: h},
				Refresh:      units.RefreshRate(hz),
				FPS:          units.FPS(fps),
				BPP:          24,
				VR:           vr,
				VRSource:     units.R4K,
				MotionFactor: mf,
			}
		}
		s, q := build(), build()
		base := mk(s)
		if base != mk(q) {
			t.Fatal("equal scenarios keyed differently")
		}
		switch mut % 8 {
		case 0:
			q.Res.Width++
		case 1:
			q.Res.Height++
		case 2:
			q.Refresh++
		case 3:
			q.FPS++
		case 4:
			q.VR = !q.VR
		case 5:
			q.MotionFactor = math.Float64frombits(math.Float64bits(q.MotionFactor) ^ 1)
		case 6:
			q.BPP++
		case 7:
			q.VRSource.Width++
		}
		if mk(q) == base {
			t.Fatalf("mutating scenario field %d did not change key", mut%8)
		}
	})
}
