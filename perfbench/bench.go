package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// size selects the workload parameters: fullSize for measurement runs,
// smokeSize for the benchmark's own tests, which only check that every
// workload still runs, reports every metric and passes its gate.
type size int

const (
	fullSize size = iota
	smokeSize
)

// setupRepeats is how many times an untraced run builds its system; the
// median build time is setup_s. Only the last build is measured.
const setupRepeats = 3

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	window time.Duration
	traced bool
	outDir string
	size   size
}

// work is what one timed operation simulated.
type work struct {
	devices int
	frames  int
}

// system is one set-up workload instance, ready for timed operations.
type system interface {
	// op runs timed operation i. Operations are numbered from 0 in the
	// order the clients start them.
	op(ctx context.Context, i int) (work, error)
	// gate re-checks the outputs sampled during the timed window against
	// an independent path and returns how many it checked and how many
	// mismatched.
	gate(ctx context.Context) (checked, mismatched int, err error)
	// layers replays the run's first n operations' inputs through each
	// layer's public functions (traced runs only).
	layers(ctx context.Context, n int, lr *layerReport) error
	// close stops every server and connection the system started.
	close() error
}

// workloadSpec describes one workload.
type workloadSpec struct {
	name    string
	clients int
	// params records the workload's parameters in the environment block.
	params func(size) map[string]any
	// setup builds the system and runs its warm-up. tr is nil on
	// untraced runs.
	setup func(cfg runConfig, tr *tracer) (system, error)
}

var workloads = map[string]workloadSpec{}

func register(w workloadSpec) { workloads[w.name] = w }

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// GateChecked counts outputs the correctness gate re-checked.
	GateChecked int `json:"-"`
}

// window is the outcome of one closed-loop timed window.
type window struct {
	wall      time.Duration
	latencies []time.Duration // successful operations only
	attempted int
	failed    int
	work      work
	cpu       time.Duration
	allocs    uint64 // bytes allocated
	gcs       uint32
	peakMB    float64 // median per-second peak of resident Go memory
	firstErr  error
}

// merge folds another window into w.
func (w *window) merge(o window) {
	w.wall += o.wall
	w.latencies = append(w.latencies, o.latencies...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.work.devices += o.work.devices
	w.work.frames += o.work.frames
	w.cpu += o.cpu
	w.allocs += o.allocs
	w.gcs += o.gcs
	w.peakMB = max(w.peakMB, o.peakMB)
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// loop drives a closed loop: clients goroutines each start operation
// after operation, numbered from next, until dur has passed; an
// operation is never cut short. It returns when every client has
// finished its last operation.
func loop(ctx context.Context, sys system, clients int, dur time.Duration, next *atomic.Int64, tr *tracer) window {
	type clientOut struct {
		lat      []time.Duration
		failed   int
		work     work
		firstErr error
	}
	outs := make([]clientOut, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	mem := startMemSampler()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				octx, id := tr.begin(ctx)
				t0 := time.Now()
				wk, err := sys.op(octx, i)
				t1 := time.Now()
				tr.record(id, spanClient, t0, t1)
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("operation %d: %w", i, err)
					}
					continue
				}
				out.lat = append(out.lat, t1.Sub(t0))
				out.work.devices += wk.devices
				out.work.frames += wk.frames
			}
		}(&outs[c])
	}
	wg.Wait()
	w := window{wall: time.Since(start), cpu: cpuTime() - cpu0, peakMB: mem.finish()}
	runtime.ReadMemStats(&ms1)
	w.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcs = ms1.NumGC - ms0.NumGC
	for _, o := range outs {
		w.latencies = append(w.latencies, o.lat...)
		w.attempted += len(o.lat) + o.failed
		w.failed += o.failed
		w.work.devices += o.work.devices
		w.work.frames += o.work.frames
		if w.firstErr == nil {
			w.firstErr = o.firstErr
		}
	}
	return w
}

// runWorkload runs one workload under cfg and returns its result.
func runWorkload(spec workloadSpec, cfg runConfig, stdout io.Writer) (result, error) {
	// A run that hangs must still end: the watchdog bounds the whole
	// process well inside the three minutes a run may take.
	watchdog := time.AfterFunc(150*time.Second+cfg.window, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded its time budget")
		os.Exit(1)
	})
	defer watchdog.Stop()

	ctx := context.Background()
	env := environment(spec, cfg)
	envJSON, err := json.Marshal(env)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	if cfg.traced {
		return runTraced(ctx, spec, cfg, env, stdout)
	}

	var setups []float64
	var sys system
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		s, err := spec.setup(cfg, nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			if err := s.close(); err != nil {
				return result{}, fmt.Errorf("setup teardown: %w", err)
			}
			continue
		}
		sys = s
	}

	var next atomic.Int64
	w := loop(ctx, sys, spec.clients, cfg.window, &next, nil)
	res, err := finish(ctx, sys, w)
	if err != nil {
		return result{}, err
	}
	res.Metrics = endToEnd(w, median(setups), res.Failed)
	fmt.Fprintf(stdout, "%s: %d ops in %.2fs, failed_ratio %g (%d/%d), gate checked %d\n",
		spec.name, w.attempted, w.wall.Seconds(), float64(res.Failed)/float64(res.Attempted),
		res.Failed, res.Attempted, res.GateChecked)
	printMetrics(stdout, res.Metrics)
	return res, nil
}

// finish runs the correctness gate, stops the system and fills the
// result's counts. Gate mismatches count as failed operations.
func finish(ctx context.Context, sys system, w window) (result, error) {
	checked, mismatched, gerr := sys.gate(ctx)
	if cerr := sys.close(); cerr != nil && gerr == nil {
		gerr = cerr
	}
	if gerr != nil {
		return result{}, fmt.Errorf("correctness gate: %w", gerr)
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", w.firstErr)
	}
	res := result{
		Attempted:   w.attempted,
		Failed:      w.failed + mismatched,
		GateChecked: checked,
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no operation completed")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd derives the end-to-end metrics from a timed window.
func endToEnd(w window, setup float64, failed int) map[string]metric {
	ok := float64(len(w.latencies))
	secs := w.wall.Seconds()
	lat := append([]time.Duration(nil), w.latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return map[string]metric{
		"setup_s":        {setup, "s"},
		"throughput_rps": {ok / secs, "1/s"},
		"latency_p50_ms": {ms(percentile(lat, 50)), "ms"},
		"latency_p90_ms": {ms(percentile(lat, 90)), "ms"},
		"latency_p99_ms": {ms(percentile(lat, 99)), "ms"},
		"devices_per_s":  {float64(w.work.devices) / secs, "1/s"},
		"frames_per_s":   {float64(w.work.frames) / secs, "1/s"},
		"cpu_ms_per_op":  {ms(w.cpu) / float64(w.attempted), "ms"},
		"max_rss_mb":     {w.peakMB, "MB"},
		"success_ratio":  {1 - float64(failed)/float64(w.attempted), "ratio"},
	}
}

// printMetrics prints one metric per line, sorted by name.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks the process's resident Go memory — everything the
// runtime has mapped minus what it has returned to the OS — every 10 ms
// while a window runs, and keeps each second's peak. The process's
// lifetime peak RSS is one extreme sample, set as often by a GC cycle's
// timing as by the workload; the median of per-second peaks is the
// steady peak a server of this workload holds.
type memSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak, n := 0.0, 0
		for {
			select {
			case <-m.stop:
				if n > 0 {
					m.peaks = append(m.peaks, peak)
				}
				return
			case <-tick.C:
			}
			metrics.Read(samples)
			peak = max(peak, float64(samples[0].Value.Uint64()-samples[1].Value.Uint64())/(1<<20))
			if n++; n == 100 {
				m.peaks = append(m.peaks, peak)
				peak, n = 0, 0
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the median per-second peak, in
// MiB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return median(m.peaks)
}

// envBlock is the environment record every result carries.
type envBlock struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"commit"`
	Dirty      string         `json:"dirty"`
	Params     map[string]any `json:"params"`
}

func environment(spec workloadSpec, cfg runConfig) envBlock {
	commit, dirty := gitState()
	return envBlock{
		Workload:   spec.name,
		Seed:       cfg.seed,
		Seconds:    cfg.window.Seconds(),
		Traced:     cfg.traced,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		Dirty:      dirty,
		Params:     spec.params(cfg.size),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState reports the commit and dirty flag when the working directory
// is the top of a git checkout, and "unknown" otherwise. It never looks
// above the working directory.
func gitState() (commit, dirty string) {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown", "unknown"
	}
	head, err := exec.Command("git", "--git-dir=.git", "--work-tree=.", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	status, err := exec.Command("git", "--git-dir=.git", "--work-tree=.", "status", "--porcelain").Output()
	if err != nil {
		return strings.TrimSpace(string(head)), "unknown"
	}
	return strings.TrimSpace(string(head)), fmt.Sprint(len(strings.TrimSpace(string(status))) > 0)
}
