package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/cluster"
	"burstlink/internal/codec"
	"burstlink/internal/core"
	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/stream"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/vr"
)

// kernelRow is one line of the kernel table.
type kernelRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Note        string  `json:"note,omitempty"`
}

// kernelBenchtime is each kernel's measuring time: short at smoke size,
// where only the table's presence is checked.
func kernelBenchtime(sz size) string {
	if sz == smokeSize {
		return "5ms"
	}
	return "200ms"
}

// codecTestBinary is where run.sh builds internal/codec's test binary,
// whose BenchmarkSAD and BenchmarkDCT8 time the two unexported codec
// kernels.
const codecTestBinary = ".bench_build/perfbench/codec.test"

var initTesting sync.Once

// runKernels builds the kernel table with testing.Benchmark, each
// kernel measured for benchtime.
func runKernels(ctx context.Context, benchtime string) []kernelRow {
	initTesting.Do(testing.Init)
	_ = flag.CommandLine.Set("test.benchtime", benchtime)
	in, err := newKernelInputs()
	if err != nil {
		return []kernelRow{{Name: "error", Note: err.Error()}}
	}

	bench := func(name, note string, fn func(b *testing.B)) kernelRow {
		r := testing.Benchmark(fn)
		return kernelRow{Name: name, NsPerOp: float64(r.T.Nanoseconds()) / float64(max(r.N, 1)),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(), Note: note}
	}
	rows := []kernelRow{
		bench("codec_encode", "one 320x180 frame, GOP of I and P frames", func(b *testing.B) {
			enc, _ := codec.NewEncoder(320, 180, codec.DefaultEncoderConfig())
			for i := 0; i < b.N; i++ {
				_, _, _ = enc.Encode(in.frames[i%len(in.frames)])
			}
		}),
		bench("codec_decode", "one 320x180 I-frame, fresh decoder", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = codec.NewDecoder().Decode(in.ipkt)
			}
		}),
	}
	rows = append(rows, codecTestKernels(ctx, benchtime)...)
	rows = append(rows,
		bench("vr_project", "256x256 viewport from 1024x512; moves no end-to-end metric: no served path projects", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.proj.Project(in.src, in.traj(float64(i)/60))
			}
		}),
		bench("power_extend_period", "BurstLink 4K60 period folded over 1800 frames", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.m.ExtendPeriod(in.pe, 1800)
			}
		}),
		bench("stream_simulate", "30 s at 60 fps, 40 Mbit/s, steady network", func(b *testing.B) {
			netFrame := units.ByteSize(40_000_000 / 8 / 60)
			for i := 0; i < b.N; i++ {
				src := stream.NewSource(stream.ConstantBandwidth(60 * units.Mbps))
				_, _ = stream.SimulateStreaming(src, stream.NewJitterBuffer(64*units.MB), netFrame, 1800, 60, 60)
			}
		}),
		bench("memo_keyof_timeline", "BurstLink 4K60 period timeline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = memo.KeyOf("timeline", in.tl)
			}
		}),
		bench("api_decode_session", "strict decode + normalize + validate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = api.DecodeSessionRequest(bytes.NewReader(in.sessionBody))
			}
		}),
		bench("ring_owner", "2 nodes, default vnodes, session cache keys", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = in.ring.OwnerIndex(in.keys[i%len(in.keys)])
			}
		}),
	)
	return rows
}

// kernelFrames draws n frames of a moving gradient.
func kernelFrames(w, h, n int) []*codec.Frame {
	out := make([]*codec.Frame, n)
	for k := range out {
		f := codec.NewFrame(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				f.Planes[0][i] = byte(x*3 + k*2)
				f.Planes[1][i] = byte(y * 5)
				f.Planes[2][i] = byte(x + y)
			}
		}
		f.Seq = k
		out[k] = f
	}
	return out
}

// kernelInputs are the kernels' fixed inputs.
type kernelInputs struct {
	frames      []*codec.Frame
	ipkt        codec.Packet // frames[0] encoded as an I-frame
	m           power.Model
	tl          trace.Timeline // BurstLink 4K60 period
	pe          power.PeriodEval
	sessionBody []byte
	ring        *cluster.Ring
	keys        []string
	proj        *vr.Projector
	src         *codec.Frame
	traj        vr.Trajectory
}

func newKernelInputs() (kernelInputs, error) {
	var in kernelInputs
	p, s := pipeline.DefaultPlatform(), pipeline.Planar(units.R4K, 60, 60)
	in.m = power.Default()
	var err error
	if in.tl, err = core.BurstLink(p, s); err != nil {
		return in, err
	}
	in.pe = in.m.EvaluatePeriod(in.tl, power.LoadOf(p, s))
	in.frames = kernelFrames(320, 180, 8)
	enc, err := codec.NewEncoder(320, 180, codec.DefaultEncoderConfig())
	if err != nil {
		return in, err
	}
	if in.ipkt, _, err = enc.Encode(in.frames[0]); err != nil {
		return in, err
	}
	if in.sessionBody, err = json.Marshal(sessionScenario(12345, measuredBase(1))); err != nil {
		return in, err
	}
	if in.ring, err = cluster.NewRing([]string{"http://node0", "http://node1"}, cluster.DefaultVNodes); err != nil {
		return in, err
	}
	in.keys = make([]string, 1024)
	for i := range in.keys {
		in.keys[i] = sessionScenario(int64(i), measuredBase(1)).CacheKey()
	}
	in.src = codec.NewFrame(1024, 512)
	for i := range in.src.Planes[0] {
		in.src.Planes[0][i] = byte(i)
	}
	if in.proj, err = vr.NewProjector(units.Resolution{Width: 256, Height: 256}, 100); err != nil {
		return in, err
	}
	in.traj, err = vr.Rollercoaster.Trace()
	return in, err
}

// codecTestKernels runs BenchmarkSAD and BenchmarkDCT8 from the codec's
// test binary, in the package directory, and parses their lines.
func codecTestKernels(ctx context.Context, benchtime string) []kernelRow {
	unavailable := func(why string) []kernelRow {
		return []kernelRow{{Name: "codec_sad", Note: why}, {Name: "codec_dct8", Note: why}}
	}
	bin, err := filepath.Abs(codecTestBinary)
	if err != nil {
		return unavailable(err.Error())
	}
	if _, err := os.Stat(bin); err != nil {
		return unavailable("no codec test binary; run.sh builds it")
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", "^Benchmark(SAD|DCT8)$",
		"-test.benchmem", "-test.benchtime", benchtime)
	cmd.Dir = filepath.Join("internal", "codec")
	out, err := cmd.Output()
	if err != nil {
		return unavailable(fmt.Sprintf("codec test binary: %v", err))
	}
	rows := parseBenchLines(bytes.NewReader(out), map[string]string{
		"BenchmarkSAD/interior": "codec_sad",
		"BenchmarkDCT8":         "codec_dct8",
	})
	for i := range rows {
		rows[i].Note = "internal/codec " + rows[i].Note + " (unexported kernel, via its test binary)"
	}
	return rows
}

// parseBenchLines reads `go test -bench -benchmem` output and keeps the
// benchmarks named in want (GOMAXPROCS suffix stripped), renamed.
func parseBenchLines(r io.Reader, want map[string]string) []kernelRow {
	var rows []kernelRow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 8 || f[3] != "ns/op" || f[5] != "B/op" || f[7] != "allocs/op" {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		short, ok := want[name]
		if !ok {
			continue
		}
		ns, _ := strconv.ParseFloat(f[2], 64)
		bytesOp, _ := strconv.ParseInt(f[4], 10, 64)
		allocs, _ := strconv.ParseInt(f[6], 10, 64)
		rows = append(rows, kernelRow{Name: short, NsPerOp: ns, BytesPerOp: bytesOp, AllocsPerOp: allocs, Note: name})
	}
	return rows
}

// printKernels prints the kernel table.
func printKernels(out io.Writer, rows []kernelRow, benchtime string) {
	fmt.Fprintf(out, "kernels (testing.Benchmark, %s each)\n", benchtime)
	fmt.Fprintf(out, "  %-22s %14s %10s %10s  %s\n", "kernel", "ns/op", "B/op", "allocs/op", "note")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-22s %14.1f %10d %10d  %s\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Note)
	}
}
