package power

import (
	"testing"
	"testing/quick"

	"burstlink/internal/memo"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// TestExtendPeriodBitIdentical pins the delta-simulation contract: the
// folded period extension must equal the full Evaluate(Repeat(n)) result
// bit for bit — not approximately — across random periods, loads, and
// repetition counts. Exact == on every Result field is the point: wire
// determinism (server determinism_test) rides on it.
func TestExtendPeriodBitIdentical(t *testing.T) {
	m := Default()
	f := func(seed uint32, np, reps uint8, demand, panel float64) bool {
		tl := randomTimeline(seed, int(np%12)+1)
		n := int(reps % 50)
		load := Load{Demand: 0.5 + mod1(demand)*2, PanelRatio: 0.25 + mod1(panel)*4}
		want := m.Evaluate(tl.Repeat(n), load)
		got := m.ExtendPeriod(m.EvaluatePeriod(tl, load), n)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mod1 squashes an arbitrary float into [0,1) without NaN/Inf.
func mod1(x float64) float64 {
	if x != x || x > 1e18 || x < -1e18 {
		return 0.5
	}
	if x < 0 {
		x = -x
	}
	for x >= 1 {
		x /= 2
	}
	return x
}

// TestExtendPeriodSeams exercises the repetition seams explicitly: a
// period whose last phase state equals its first (no entry at the seam)
// and one where they differ (an extra entry per repetition), plus the
// n=0 and n=1 ends.
func TestExtendPeriodSeams(t *testing.T) {
	m := Default()
	same := randomTimeline(7, 6)
	same.Phases[0].State = same.Phases[len(same.Phases)-1].State
	diff := randomTimeline(11, 6)
	diff.Phases[0].State = soc.C0
	diff.Phases[len(diff.Phases)-1].State = soc.C8
	for _, tl := range []trace.Timeline{same, diff} {
		for _, n := range []int{0, 1, 2, 3, 100} {
			want := m.Evaluate(tl.Repeat(n), UnitLoad)
			got := m.ExtendPeriod(m.EvaluatePeriod(tl, UnitLoad), n)
			if got != want {
				t.Fatalf("n=%d: got %+v want %+v", n, got, want)
			}
		}
	}
}

// TestEvaluateMemoBitIdentical: the memoized evaluation — cold, warm,
// and with the cache disabled — returns the same bits as Evaluate.
func TestEvaluateMemoBitIdentical(t *testing.T) {
	m := Default()
	tl := randomTimeline(3, 9)
	want := m.Evaluate(tl, UnitLoad)
	c := memo.NewCache(16)
	for i, cache := range []*memo.Cache{nil, c, c} {
		if got := m.EvaluateMemo(cache, tl, UnitLoad); got != want {
			t.Fatalf("pass %d (nil, cold, warm): got %+v want %+v", i, got, want)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after cold+warm: %+v", st)
	}
}

// TestPeriodEvalIndependentOfRepeatCount: the memoized segment must not
// bake the repetition count in — a 10s and a 60s session keyed on the
// same period share one entry.
func TestPeriodEvalIndependentOfRepeatCount(t *testing.T) {
	m := Default()
	tl := randomTimeline(5, 8)
	c := memo.NewCache(16)
	a := m.EvaluatePeriodMemo(c, tl, UnitLoad)
	_ = m.ExtendPeriod(a, 300)
	_ = m.ExtendPeriod(m.EvaluatePeriodMemo(c, tl, UnitLoad), 1800)
	if st := c.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("expected one shared period entry, stats %+v", st)
	}
}

// TestModelKeyCanonical: two independently built equal models produce
// identical keys (map iteration order must not leak into the hash), and
// a coefficient nudge changes the key.
func TestModelKeyCanonical(t *testing.T) {
	a, b := Default(), Default()
	ka := memo.KeyOf("m", a)
	if kb := memo.KeyOf("m", b); ka != kb {
		t.Fatalf("equal models keyed differently: %s vs %s", ka, kb)
	}
	b.Comp[soc.Panel][soc.C0] += units.Power(1e-9)
	if kb := memo.KeyOf("m", b); ka == kb {
		t.Fatal("coefficient nudge did not change key")
	}
}
