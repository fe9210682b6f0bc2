package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/cache"
	"burstlink/internal/core"
	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/session"
	"burstlink/internal/stream"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload never reaches reports 0.
var perLayer = []struct{ name, unit string }{
	{"api.decode_us", "us"},
	{"api.key_us", "us"},
	{"api.marshal_us", "us"},
	{"api.client_us", "us"},
	{"http.loopback_us", "us"},
	{"cluster.router_self_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.owner_ns", "ns"},
	{"cluster.skew", "ratio"},
	{"server.handler_us", "us"},
	{"server.result_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"server.max_in_flight", "count"},
	{"cache.get_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.evictions", "count"},
	{"session.run_us", "us"},
	{"session.run_warm_us", "us"},
	{"stream.simulate_us", "us"},
	{"session.timeline_us", "us"},
	{"power.period_eval_us", "us"},
	{"power.extend_period_us", "us"},
	{"memo.key_us", "us"},
	{"memo.clone_us", "us"},
	{"memo.hit_ratio", "ratio"},
	{"memo.misses", "count"},
	{"memo.coalesced", "count"},
	{"memo.evictions", "count"},
	{"fleet.sample_us", "us"},
	{"fleet.unique_configs", "count"},
	{"sink.fold_us", "us"},
	{"sink.summaries_us", "us"},
	{"codec.encode_ms_per_frame", "ms"},
	{"codec.decode_ms_per_frame", "ms"},
	{"pipeline.protocol_ms", "ms"},
	{"go.alloc_kb_per_op", "kB"},
	{"go.gc_cycles_per_kop", "count"},
	{"budget.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"kernel.codec_encode_ns", "ns"},
	{"kernel.codec_decode_ns", "ns"},
	{"kernel.codec_sad_ns", "ns"},
	{"kernel.codec_dct8_ns", "ns"},
	{"kernel.vr_project_ns", "ns"},
	{"kernel.power_extend_period_ns", "ns"},
	{"kernel.stream_simulate_ns", "ns"},
	{"kernel.memo_keyof_timeline_ns", "ns"},
	{"kernel.api_decode_session_ns", "ns"},
	{"kernel.ring_owner_ns", "ns"},
}

// layerReport collects a traced run's per-layer numbers and its budget
// table.
type layerReport struct {
	values map[string]float64
	spans  []spanRec
	budget []budgetRow
}

// budgetRow is one layer's share of the mean client latency. Source
// says how it was measured: "span" (difference of recorded spans),
// "replay" (the layer's public functions over the run's inputs, scaled
// by how often the layer ran per request) or "rest" (a span's time that
// no replayed layer explains: scheduling, contention, net/http
// plumbing, and everything the replays do not reach).
type budgetRow struct {
	Layer  string  `json:"layer"`
	Source string  `json:"source"`
	US     float64 `json:"us"`
}

func newLayerReport() *layerReport {
	return &layerReport{values: make(map[string]float64)}
}

func (lr *layerReport) set(name string, v float64) { lr.values[name] = v }

func (lr *layerReport) row(layer, source string, us float64) {
	lr.budget = append(lr.budget, budgetRow{Layer: layer, Source: source, US: us})
}

// metrics renders every per-layer metric.
func (lr *layerReport) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		out[p.name] = metric{Value: lr.values[p.name], Unit: p.unit}
	}
	return out
}

// closeBudget sets budget.unaccounted_frac: the "rest" rows' share of
// the mean client latency, which the rows sum to.
func (lr *layerReport) closeBudget(total float64) {
	rest := 0.0
	for _, r := range lr.budget {
		if r.Source == "rest" {
			rest += r.US
		}
	}
	if total > 0 {
		lr.set("budget.unaccounted_frac", rest/total)
	}
}

// printBudget prints the budget table.
func (lr *layerReport) printBudget(out io.Writer, name string) {
	total := 0.0
	for _, r := range lr.budget {
		total += r.US
	}
	fmt.Fprintf(out, "budget %s (mean per request over %d traced requests)\n", name, len(lr.spans))
	fmt.Fprintf(out, "  %-44s %-7s %12s %8s\n", "layer", "source", "us", "share")
	for _, r := range lr.budget {
		fmt.Fprintf(out, "  %-44s %-7s %12.2f %7.1f%%\n", r.Layer, r.Source, r.US, 100*r.US/total)
	}
	fmt.Fprintf(out, "  %-44s %-7s %12.2f %7.1f%%\n", "total = client latency", "", total, 100.0)
}

// spanMeans are the mean span durations, in µs, over the traced
// requests that recorded every span the topology has.
type spanMeans struct {
	n                                  int
	client, clientRT, front, hop, node float64
}

func meanSpans(recs []spanRec, routed bool) spanMeans {
	var sm spanMeans
	for _, r := range recs {
		if !r[spanClient].set() || !r[spanClientRT].set() || !r[spanNode].set() {
			continue
		}
		if routed && (!r[spanFront].set() || !r[spanHopRT].set()) {
			continue
		}
		sm.n++
		sm.client += us(r[spanClient].dur())
		sm.clientRT += us(r[spanClientRT].dur())
		sm.front += us(r[spanFront].dur())
		sm.hop += us(r[spanHopRT].dur())
		sm.node += us(r[spanNode].dur())
	}
	if sm.n > 0 {
		k := float64(sm.n)
		sm.client, sm.clientRT, sm.front, sm.hop, sm.node = sm.client/k, sm.clientRT/k, sm.front/k, sm.hop/k, sm.node/k
	}
	return sm
}

// meanOver times fn over i in [0, n) and returns the mean in µs.
func meanOver(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(n)
}

// decodeReplay is the api layer replayed over one endpoint's recorded
// requests: strict decode, cache key, and the response marshal.
type decodeReplay struct {
	decodeUS, keyUS, marshalUS float64
}

// replayAPI times decode (over bodies) and key (over the decoded
// requests) for one request type, and marshal over resps.
func replayAPI[R interface{ CacheKey() string }](bodies [][]byte, decode func(io.Reader) (R, error), resps []any) (decodeReplay, error) {
	reqs := make([]R, len(bodies))
	var derr error
	var d decodeReplay
	d.decodeUS = meanOver(len(bodies), func(i int) {
		r, err := decode(bytes.NewReader(bodies[i]))
		if err != nil && derr == nil {
			derr = err
		}
		reqs[i] = r
	})
	if derr != nil {
		return d, fmt.Errorf("replaying decode: %w", derr)
	}
	var keep int
	d.keyUS = meanOver(len(reqs), func(i int) { keep += len(reqs[i].CacheKey()) })
	d.marshalUS = meanOver(len(resps), func(i int) {
		b, err := json.Marshal(resps[i])
		if err != nil && derr == nil {
			derr = err
		}
		keep += len(b)
	})
	return d, derr
}

// replayCache replays each node's key stream through a cache.LRU at the
// server's default capacity (4096 entries): Get every key, Put on a
// miss, as the server's execute does.
// It returns the mean Get and Put times and the miss fraction.
func replayCache(streams [][]string, body []byte, lr *layerReport) (getNS, putNS, missFrac float64) {
	var gets, puts int
	var getT, putT time.Duration
	var evictions uint64
	for _, keys := range streams {
		c := cache.NewLRU(4096)
		for _, k := range keys {
			t0 := time.Now()
			_, ok := c.Get(k)
			t1 := time.Now()
			getT += t1.Sub(t0)
			gets++
			if !ok {
				c.Put(k, body)
				putT += time.Since(t1)
				puts++
			}
		}
		evictions += c.Stats().Evictions
	}
	if gets > 0 {
		getNS = float64(getT) / float64(gets)
		missFrac = float64(puts) / float64(gets)
	}
	if puts > 0 {
		putNS = float64(putT) / float64(puts)
	}
	lr.set("cache.get_ns", getNS)
	lr.set("cache.put_ns", putNS)
	lr.set("cache.evictions", float64(evictions))
	return getNS, putNS, missFrac
}

// schedulers maps each session scheme to its period-timeline scheduler,
// the function Engine.Run's timeline segment calls on a miss.
var schedulers = map[session.Scheme]func(pipeline.Platform, pipeline.Scenario) (trace.Timeline, error){
	session.Conventional: pipeline.Conventional,
	session.BurstOnly:    core.BurstOnly,
	session.BypassOnly:   core.BypassOnly,
	session.BurstLink:    core.BurstLink,
}

// engineReplay is the session engine's cost over a list of configs.
type engineReplay struct {
	runUS     float64
	responses []any // the SessionResponse of every config, for marshal timing
}

// replayEngine times session.Engine.Run over cfgs in order with a fresh
// segment cache (the miss path a node takes), then once more with every
// segment warm, and each segment's public functions on their own.
func replayEngine(cfgs []session.Config, lr *layerReport) (engineReplay, error) {
	p, m := pipeline.DefaultPlatform(), power.Default()
	eng := session.Engine{P: p, M: m, Memo: memo.NewCache(8192)}
	var er engineReplay
	var rerr error
	results := make([]session.Result, len(cfgs))
	er.runUS = meanOver(len(cfgs), func(i int) {
		r, err := eng.Run(cfgs[i])
		if err != nil && rerr == nil {
			rerr = err
		}
		results[i] = r
	})
	if rerr != nil {
		return er, fmt.Errorf("replaying Engine.Run: %w", rerr)
	}
	lr.set("session.run_us", er.runUS)
	lr.set("session.run_warm_us", meanOver(len(cfgs), func(i int) { _, _ = eng.Run(cfgs[i]) }))
	for _, r := range results {
		er.responses = append(er.responses, sessionResponse(r))
	}

	tls := make([]trace.Timeline, len(cfgs))
	lr.set("session.timeline_us", meanOver(len(cfgs), func(i int) {
		tl, err := schedulers[cfgs[i].Scheme](p, cfgs[i].Scenario)
		if err != nil && rerr == nil {
			rerr = err
		}
		tls[i] = tl
	}))
	if rerr != nil {
		return er, fmt.Errorf("replaying the timeline schedulers: %w", rerr)
	}
	lr.set("stream.simulate_us", meanOver(len(cfgs), func(i int) {
		if _, err := simulateBuffer(p, cfgs[i]); err != nil && rerr == nil {
			rerr = err
		}
	}))
	if rerr != nil {
		return er, fmt.Errorf("replaying stream.SimulateStreaming: %w", rerr)
	}
	loads := make([]power.Load, len(cfgs))
	pes := make([]power.PeriodEval, len(cfgs))
	lr.set("power.period_eval_us", meanOver(len(cfgs), func(i int) {
		loads[i] = power.LoadOf(p, cfgs[i].Scenario)
		pes[i] = m.EvaluatePeriod(tls[i], loads[i])
	}))
	lr.set("power.extend_period_us", meanOver(len(cfgs), func(i int) {
		m.ExtendPeriod(pes[i], cfgs[i].Seconds*int(cfgs[i].Scenario.FPS))
	}))
	var keep int
	lr.set("memo.key_us", meanOver(len(cfgs), func(i int) {
		keep += len(memo.KeyOf("timeline", tls[i])) + len(memo.KeyOf("load", loads[i])) + len(memo.KeyOf("model", m))
	}))
	lr.set("memo.clone_us", meanOver(len(cfgs), func(i int) { keep += len(tls[i].Clone().Phases) }))
	return er, nil
}

// simulateBuffer is the buffer-delivery segment's work for cfg: the
// steady default network at 1.5× the stream's bitrate into a 64 MB
// jitter buffer, as Engine.Run computes it on a miss.
func simulateBuffer(p pipeline.Platform, cfg session.Config) (stream.Stats, error) {
	s := cfg.Scenario
	bitrate := cfg.Bitrate
	if bitrate <= 0 {
		enc := p.EncodedFrameSize(s.Res)
		if s.VR {
			enc = p.EncodedFrameSize(s.VRSource)
		}
		bitrate = units.DataRate(float64(enc.Bits()) * float64(s.FPS))
	}
	prebuf := cfg.PrebufferFrames
	if prebuf == 0 {
		prebuf = int(s.FPS)
	}
	netFrame := units.ByteSize(float64(bitrate) / 8 / float64(s.FPS))
	src := stream.NewSource(stream.ConstantBandwidth(units.DataRate(1.5 * float64(bitrate))))
	return stream.SimulateStreaming(src, stream.NewJitterBuffer(64*units.MB), netFrame, cfg.Seconds*int(s.FPS), s.FPS, prebuf)
}

// sessionResponse renders an engine result as the server's response
// body does.
func sessionResponse(r session.Result) api.SessionResponse {
	return api.SessionResponse{
		Scheme:      r.Scheme.String(),
		Frames:      r.Frames,
		Stalls:      r.Stalls,
		AvgPower:    r.AvgPower,
		Energy:      r.Energy,
		BatteryLife: r.BatteryLife,
		DRAMRead:    r.DRAMRead,
		DRAMWrite:   r.DRAMWrite,
		BufferPeak:  r.Buffer.Peak,
	}
}

// sessionConfigs converts requests to engine configs, dropping repeats
// (a node's engine runs each distinct scenario once, on its miss).
func sessionConfigs(reqs []api.SessionRequest) ([]session.Config, error) {
	seen := make(map[string]bool)
	var out []session.Config
	for _, r := range reqs {
		r.Normalize()
		k := r.CacheKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		cfg, err := r.ToConfig()
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}
