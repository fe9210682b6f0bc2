package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"burstlink/internal/sim"
	"burstlink/internal/soc"
	"burstlink/internal/units"
)

// timeIn returns the total duration tl spends in package state s.
func timeIn(tl Timeline, s soc.PackageCState) time.Duration {
	var sum time.Duration
	for _, p := range tl.Phases {
		if p.State == s {
			sum += p.Duration
		}
	}
	return sum
}

// table2Baseline builds the baseline FHD 30FPS timeline of Table 2:
// 9% C0, 11% C2, 80% C8 over a two-window (33.33 ms) period.
func table2Baseline() Timeline {
	var t Timeline
	period := 2 * units.RefreshRate(60).Window()
	t.AddState(soc.C0, period*9/100, "decode")
	t.AddState(soc.C2, period*11/100, "dc fetch")
	t.AddState(soc.C8, period*80/100, "idle")
	return t
}

func TestResidencyMatchesConstruction(t *testing.T) {
	tl := table2Baseline()
	res := tl.Residency()
	want := map[soc.PackageCState]float64{soc.C0: 0.09, soc.C2: 0.11, soc.C8: 0.80}
	for s, w := range want {
		if math.Abs(res[s]-w) > 1e-6 {
			t.Errorf("residency[%v] = %.4f, want %.4f", s, res[s], w)
		}
	}
}

func TestResidencySumsToOne(t *testing.T) {
	f := func(durs [5]uint16) bool {
		var tl Timeline
		states := []soc.PackageCState{soc.C0, soc.C2, soc.C3, soc.C6, soc.C7, soc.C7Prime, soc.C8, soc.C9, soc.C10}
		any := false
		for i, d := range durs {
			if d == 0 {
				continue
			}
			any = true
			tl.AddState(states[i%len(states)], time.Duration(d)*time.Microsecond, "")
		}
		if !any {
			return len(tl.Residency()) == 0
		}
		sum := 0.0
		for _, r := range tl.Residency() {
			sum += r
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroDurationPhasesDropped(t *testing.T) {
	var tl Timeline
	tl.AddState(soc.C0, 0, "nothing")
	tl.Add(Phase{State: soc.C2, Duration: -time.Millisecond})
	if len(tl.Phases) != 0 {
		t.Fatalf("zero/negative phases kept: %v", tl.Phases)
	}
}

// Compact merges adjacent phases that share state, burst flag, and label,
// summing durations and traffic. It returns the receiver for chaining.
func (t *Timeline) Compact() *Timeline {
	if len(t.Phases) < 2 {
		return t
	}
	out := t.Phases[:1]
	for _, p := range t.Phases[1:] {
		last := &out[len(out)-1]
		if p.State == last.State && p.EDPBurst == last.EDPBurst &&
			p.GPUActive == last.GPUActive && p.Label == last.Label {
			last.Duration += p.Duration
			last.DRAMRead += p.DRAMRead
			last.DRAMWrite += p.DRAMWrite
			continue
		}
		out = append(out, p)
	}
	t.Phases = out
	return t
}

func TestCompactMergesAdjacent(t *testing.T) {
	var tl Timeline
	tl.Add(Phase{State: soc.C2, Duration: time.Millisecond, DRAMRead: units.MB})
	tl.Add(Phase{State: soc.C2, Duration: time.Millisecond, DRAMRead: 2 * units.MB})
	tl.Add(Phase{State: soc.C8, Duration: time.Millisecond})
	tl.Add(Phase{State: soc.C2, Duration: time.Millisecond, Label: "x"})
	tl.Compact()
	if len(tl.Phases) != 3 {
		t.Fatalf("compacted to %d phases, want 3", len(tl.Phases))
	}
	if tl.Phases[0].Duration != 2*time.Millisecond || tl.Phases[0].DRAMRead != 3*units.MB {
		t.Fatalf("merged phase wrong: %+v", tl.Phases[0])
	}
}

func TestCompactPreservesTotals(t *testing.T) {
	f := func(seed uint32, n uint8) bool {
		var tl Timeline
		s := seed
		for i := 0; i < int(n%40)+1; i++ {
			s = s*1664525 + 1013904223
			tl.Add(Phase{
				State:    soc.PackageCState(s % 9),
				Duration: time.Duration(s%1000+1) * time.Microsecond,
				DRAMRead: units.ByteSize(s % 4096),
			})
		}
		total, read := tl.Total(), func() units.ByteSize { r, _ := tl.DRAMTraffic(); return r }()
		tl.Compact()
		r2, _ := tl.DRAMTraffic()
		return tl.Total() == total && r2 == read
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesCountsTransitions(t *testing.T) {
	tl := table2Baseline()
	two := tl.Repeat(2)
	entries := two.Entries()
	// C0 C2 C8 C0 C2 C8 → each entered twice.
	for _, s := range []soc.PackageCState{soc.C0, soc.C2, soc.C8} {
		if entries[s] != 2 {
			t.Errorf("entries[%v] = %d, want 2", s, entries[s])
		}
	}
}

func TestRepeatScalesTotal(t *testing.T) {
	tl := table2Baseline()
	if got, want := tl.Repeat(30).Total(), 30*tl.Total(); got != want {
		t.Fatalf("repeat total = %v, want %v", got, want)
	}
}

func TestTimeInAndDeepest(t *testing.T) {
	tl := table2Baseline()
	period := 2 * units.RefreshRate(60).Window()
	if got := timeIn(tl, soc.C8); got != period*80/100 {
		t.Fatalf("TimeIn(C8) = %v, want %v", got, period*80/100)
	}
	if tl.DeepestState() != soc.C8 {
		t.Fatalf("deepest = %v, want C8", tl.DeepestState())
	}
	var empty Timeline
	if empty.DeepestState() != soc.C0 {
		t.Fatal("empty timeline deepest should be C0")
	}
}

// DRAMBandwidth returns the average DRAM bandwidth during the phase.
func (p Phase) DRAMBandwidth() units.DataRate {
	if p.Duration <= 0 {
		return 0
	}
	return units.BytesPerSecond(float64(p.DRAMRead+p.DRAMWrite) / p.Duration.Seconds())
}

func TestDRAMBandwidth(t *testing.T) {
	p := Phase{Duration: time.Second, DRAMRead: units.GB, DRAMWrite: units.GB}
	if got := p.DRAMBandwidth(); math.Abs(float64(got-units.GBps(2))) > 1 {
		t.Fatalf("bandwidth = %v, want 2 GB/s", got)
	}
	if (Phase{}).DRAMBandwidth() != 0 {
		t.Fatal("zero-duration phase should have zero bandwidth")
	}
}

func TestStringSummary(t *testing.T) {
	tl := table2Baseline()
	got := tl.String()
	if !strings.Contains(got, "C0(9.0%)") || !strings.Contains(got, "C8(80.0%)") {
		t.Fatalf("summary = %q", got)
	}
	// Depth-ordered: C0 before C2 before C8.
	if strings.Index(got, "C0") > strings.Index(got, "C8") {
		t.Fatalf("summary not depth-ordered: %q", got)
	}
}

func TestASCIIRendering(t *testing.T) {
	var tl Timeline
	tl.AddState(soc.C0, 2*time.Millisecond, "")
	tl.AddState(soc.C7Prime, 2*time.Millisecond, "")
	tl.AddState(soc.C9, 4*time.Millisecond, "")
	got := tl.ASCII(8)
	if got != "00''9999" {
		t.Fatalf("ASCII = %q, want 00''9999", got)
	}
	if tl.ASCII(0) != "" {
		t.Fatal("zero width should render empty")
	}
	var empty Timeline
	if empty.ASCII(10) != "" {
		t.Fatal("empty timeline should render empty")
	}
}

func TestASCIIWidthExact(t *testing.T) {
	f := func(w uint8) bool {
		if w == 0 {
			return true
		}
		tl := table2Baseline()
		return len(tl.ASCII(int(w))) == int(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderBuildsTimeline(t *testing.T) {
	var eng sim.Engine
	pmu := soc.NewPMU(&eng, nil)
	rec := NewRecorder(&eng)
	pmu.Listen(rec.OnTransition)

	eng.Schedule(3*time.Millisecond, "go idle", func() {
		rec.NoteDRAM(5*units.MB, 2*units.MB)
		pmu.SetComponents(soc.ComponentSet{
			soc.Cores: soc.CompPowerGated, soc.Graphics: soc.CompPowerGated,
			soc.VideoDec: soc.CompPowerGated, soc.MemCtl: soc.CompActive,
			soc.DRAMDev: soc.CompActive, soc.DispCtl: soc.CompActive,
		})
	})
	eng.Schedule(8*time.Millisecond, "deep", func() {
		pmu.SetComponents(soc.ComponentSet{
			soc.MemCtl: soc.CompPowerGated, soc.DRAMDev: soc.CompPowerGated,
			soc.DispCtl: soc.CompIdle, soc.EDPHost: soc.CompIdle,
		})
	})
	eng.RunUntil(16 * time.Millisecond)
	tl := rec.Finish()

	if len(tl.Phases) != 3 {
		t.Fatalf("phases = %d (%v), want 3", len(tl.Phases), tl.Phases)
	}
	if tl.Phases[0].State != soc.C0 || tl.Phases[0].Duration != 3*time.Millisecond {
		t.Fatalf("phase 0 = %+v", tl.Phases[0])
	}
	if tl.Phases[0].DRAMRead != 5*units.MB || tl.Phases[0].DRAMWrite != 2*units.MB {
		t.Fatalf("phase 0 traffic = %+v", tl.Phases[0])
	}
	if tl.Phases[1].State != soc.C2 || tl.Phases[1].Duration != 5*time.Millisecond {
		t.Fatalf("phase 1 = %+v", tl.Phases[1])
	}
	if tl.Phases[2].State != soc.C8 || tl.Phases[2].Duration != 8*time.Millisecond {
		t.Fatalf("phase 2 = %+v", tl.Phases[2])
	}
	if tl.Total() != 16*time.Millisecond {
		t.Fatalf("total = %v", tl.Total())
	}
}

func TestRecorderBurstAndLabel(t *testing.T) {
	var eng sim.Engine
	rec := NewRecorder(&eng)
	rec.NoteBurst()
	rec.NoteLabel("burst drain")
	eng.Schedule(time.Millisecond, "tick", func() {})
	eng.Run()
	tl := rec.Finish()
	if len(tl.Phases) != 1 || !tl.Phases[0].EDPBurst || tl.Phases[0].Label != "burst drain" {
		t.Fatalf("phases = %+v", tl.Phases)
	}
}
