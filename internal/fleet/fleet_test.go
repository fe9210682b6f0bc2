package fleet

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"burstlink/internal/memo"
	"burstlink/internal/par"
	"burstlink/internal/session"
	"burstlink/internal/sink"
	"burstlink/internal/units"
)

// testPopulation is a cheap population for the determinism matrix: short
// sessions keep the uncached arm affordable in tests while still
// exercising class scaling, content mixing, and dedup.
func testPopulation() Population {
	return Population{
		Size:     40,
		Seed:     99,
		Scheme:   session.BurstLink,
		Segments: 2,
		Hours:    []float64{1, 2},
		Classes: []Class{
			{Name: "mini", Weight: 3, BatteryMWh: 15000, Res: units.FHD, Refresh: 60, PerfScale: 1},
			{Name: "midi", Weight: 1, BatteryMWh: 30000, Res: units.QHD, Refresh: 60, PerfScale: 1.2},
		},
		Contents: []Content{
			{Name: "clip-30", Weight: 2, FPS: 30, Seconds: 2},
			{Name: "clip-60", Weight: 1, FPS: 60, Seconds: 3},
		},
	}
}

func TestDefaultPopulationValid(t *testing.T) {
	pop := Default()
	pop.Size = 10
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceSamplingDeterministic(t *testing.T) {
	pop := testPopulation()
	for i := 0; i < pop.Size; i++ {
		a, b := pop.Device(i), pop.Device(i)
		if a.Key() != b.Key() {
			t.Fatalf("device %d: repeated sampling differs", i)
		}
		for j := 1; j < len(a.Segments); j++ {
			p, q := a.Segments[j-1], a.Segments[j]
			if p.Content.Name > q.Content.Name ||
				(p.Content.Name == q.Content.Name && p.Hours > q.Hours) {
				t.Fatalf("device %d: segments not in canonical order", i)
			}
		}
	}
	other := pop
	other.Seed = 100
	differs := false
	for i := 0; i < pop.Size; i++ {
		if pop.Device(i).Key() != other.Device(i).Key() {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("seed change left every device identical")
	}
}

// runArm executes one arm of the determinism matrix and renders its
// aggregate (outcome + metric summaries) as JSON.
func runArm(t *testing.T, pop Population, workers int, opts Options) []byte {
	t.Helper()
	defer par.SetWorkers(par.SetWorkers(workers))
	var agg sink.Agg
	out, err := Run(context.Background(), pop, &agg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Outcome Outcome
		Metrics []sink.MetricSummary
	}{out, agg.Summaries()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunDeterminismMatrix pins the acceptance contract: the same seed
// and population spec produce byte-identical aggregates regardless of
// worker count (1 vs N) and cache state (none, cold, warm, and a tiny
// cache that evicts mid-run).
func TestRunDeterminismMatrix(t *testing.T) {
	pop := testPopulation()
	want := runArm(t, pop, 1, Options{Memo: memo.NewCache(4096)})

	warm := memo.NewCache(4096)
	tiny := memo.NewCache(2)
	arms := []struct {
		name    string
		workers int
		opts    Options
	}{
		{"parallel-cold", 4, Options{Memo: memo.NewCache(4096)}},
		{"no-cache", 4, Options{}},
		{"warm-first", 1, Options{Memo: warm}},
		{"warm-second", 4, Options{Memo: warm}},
		{"evicting", 4, Options{Memo: tiny}},
	}
	for _, arm := range arms {
		if got := runArm(t, pop, arm.workers, arm.opts); string(got) != string(want) {
			t.Errorf("%s: aggregate differs from serial cold-cache baseline:\n%s\nvs\n%s", arm.name, got, want)
		}
	}
	if st := tiny.Stats(); st.Evictions == 0 {
		t.Error("tiny cache saw no evictions; the evicting arm did not exercise eviction")
	}
	if st := warm.Stats(); st.Hits == 0 {
		t.Error("warm cache saw no hits on the second run")
	}
}

// floatCols records each row's float cells for the per-row checks.
type floatCols struct {
	floats [][]float64
}

func (f *floatCols) Begin(sink.Schema) error { return nil }
func (f *floatCols) Flush() error            { return nil }

func (f *floatCols) Append(row []sink.Value) error {
	r := make([]float64, len(row))
	for i, v := range row {
		r[i] = v.F
	}
	f.floats = append(f.floats, r)
	return nil
}

// Rows returns the appended row count.
func (f *floatCols) Rows() int { return len(f.floats) }

func TestRunDedupAndRowCount(t *testing.T) {
	pop := testPopulation()
	var cols floatCols
	out, err := Run(context.Background(), pop, &cols, Options{Memo: memo.NewCache(4096)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Devices != pop.Size {
		t.Errorf("devices = %d, want %d", out.Devices, pop.Size)
	}
	if out.Unique >= pop.Size || out.Unique <= 0 {
		t.Errorf("unique = %d, want deduplication below population size %d", out.Unique, pop.Size)
	}
	if cols.Rows() != pop.Size {
		t.Errorf("sink rows = %d, want one per device (%d)", cols.Rows(), pop.Size)
	}
	// The technique arm should save energy on every configuration.
	for r := 0; r < cols.Rows(); r++ {
		if s := cols.floats[r][2]; s <= 0 || s >= 100 {
			t.Fatalf("row %d: saving %g%% outside (0, 100)", r, s)
		}
		if imp := cols.floats[r][1]; imp <= 0 {
			t.Fatalf("row %d: battery impact %g%% not positive", r, imp)
		}
	}
}

func TestRunProgressMonotonic(t *testing.T) {
	pop := testPopulation()
	last, calls := 0, 0
	opts := Options{
		Memo: memo.NewCache(4096),
		Progress: func(done, total int) {
			calls++
			if total != pop.Size {
				t.Errorf("progress total = %d, want %d", total, pop.Size)
			}
			if done < last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			last = done
		},
	}
	defer par.SetWorkers(par.SetWorkers(1))
	var agg sink.Agg
	if _, err := Run(context.Background(), pop, &agg, opts); err != nil {
		t.Fatal(err)
	}
	if last != pop.Size {
		t.Errorf("final progress = %d, want %d", last, pop.Size)
	}
	if calls == 0 {
		t.Error("progress callback never fired")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var agg sink.Agg
	if _, err := Run(ctx, testPopulation(), &agg, Options{}); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Population)
		frag   string
	}{
		{"zero-size", func(p *Population) { p.Size = 0 }, "size"},
		{"zero-segments", func(p *Population) { p.Segments = 0 }, "segments"},
		{"no-hours", func(p *Population) { p.Hours = nil }, "hour"},
		{"negative-hour", func(p *Population) { p.Hours = []float64{-1} }, "hour"},
		{"no-classes", func(p *Population) { p.Classes = nil }, "classes"},
		{"dup-class", func(p *Population) { p.Classes[1].Name = p.Classes[0].Name }, "unique"},
		{"zero-weight", func(p *Population) { p.Classes[0].Weight = 0 }, "weight"},
		{"zero-battery", func(p *Population) { p.Classes[0].BatteryMWh = 0 }, "battery"},
		{"zero-perf", func(p *Population) { p.Classes[0].PerfScale = 0 }, "perf"},
		{"dup-content", func(p *Population) { p.Contents[1].Name = p.Contents[0].Name }, "unique"},
		{"zero-seconds", func(p *Population) { p.Contents[0].Seconds = 0 }, "seconds"},
		{"negative-bitrate", func(p *Population) { p.Contents[0].Bitrate = -1 }, "bitrate"},
		{"fps-over-refresh", func(p *Population) { p.Contents[0].FPS = 90 }, "×"},
		// The two weights sum to MaxInt+1, which wraps to MinInt: the
		// sampler would draw from a negative total.
		{"weight-overflow", func(p *Population) { p.Contents[0].Weight, p.Contents[1].Weight = math.MaxInt/2+1, math.MaxInt/2+1 }, "content weights total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pop := testPopulation()
			tc.mutate(&pop)
			err := pop.Validate()
			if err == nil {
				t.Fatal("invalid population accepted")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}
