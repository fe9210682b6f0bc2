package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/fleet"
	"burstlink/internal/memo"
	"burstlink/internal/sink"
)

// fleet: one closed-loop client POSTs plain /v1/fleet straight to one
// node. Every request is the reference population at a fixed size with
// a fresh population seed, so the result cache never hits while the
// segment cache stays hot: per-device sampling and dedup (fleet) and the
// aggregate fold (sink) dominate.
func init() {
	register(workloadSpec{
		name:    "fleet",
		clients: 1,
		params: func(sz size) map[string]any {
			return map[string]any{"clients": 1, "nodes": 1, "router": false, "population": "fleet.Default",
				"population_size": fleetSize(sz), "warmup_requests": fleetWarmup}
		},
		setup: setupFleet,
	})
}

const fleetWarmup = 4

// fleetSamples caps the responses kept for the correctness gate, which
// recomputes each population in process.
const fleetSamples = 8

func fleetSize(sz size) int {
	if sz == smokeSize {
		return 200
	}
	return 10000
}

// fleetRequest is request i: the timed window's population seeds start
// at the seed's own block of 2^32; warm-ups count down from the top of
// the seed space, so they never share a population.
func fleetRequest(size int, seedBlock int64, i int) api.FleetRequest {
	return api.FleetRequest{Size: size, Seed: uint64(seedBlock)<<32 + uint64(i)}
}

func warmFleetRequest(size, i int) api.FleetRequest {
	return api.FleetRequest{Size: size, Seed: ^uint64(0) - uint64(i)}
}

type fleetSample struct {
	req  api.FleetRequest
	resp api.FleetResponse
}

type fleetSystem struct {
	svc   *service
	size  int
	seed  int64
	every int
	// framesPerDevice is the mean simulated frames of one device's day
	// (both arms), from the first timed population.
	framesPerDevice float64

	mu      sync.Mutex
	samples []fleetSample
}

func setupFleet(cfg runConfig, tr *tracer) (system, error) {
	svc, err := startService(1, false, 1, tr)
	if err != nil {
		return nil, err
	}
	s := &fleetSystem{svc: svc, size: fleetSize(cfg.size), seed: cfg.seed, every: 50}
	if cfg.size == smokeSize {
		s.every = 2
	}
	err = warm(1, fleetWarmup, func(i int) error {
		_, _, err := svc.client.Fleet(context.Background(), warmFleetRequest(s.size, i))
		return err
	})
	if err == nil {
		s.framesPerDevice, err = framesPerDevice(fleetRequest(s.size, s.seed, 0))
	}
	if err != nil {
		_ = svc.close()
		return nil, err
	}
	return s, nil
}

// framesPerDevice samples req's population and returns the mean frames
// one device's sessions play: every day segment runs its content once
// under the baseline and once under the technique arm.
func framesPerDevice(req api.FleetRequest) (float64, error) {
	req.Normalize()
	pop, err := req.ToPopulation()
	if err != nil {
		return 0, err
	}
	total := 0
	for i := 0; i < pop.Size; i++ {
		for _, seg := range pop.Device(i).Segments {
			total += 2 * seg.Content.Seconds * int(seg.Content.FPS)
		}
	}
	return float64(total) / float64(pop.Size), nil
}

func (s *fleetSystem) op(ctx context.Context, i int) (work, error) {
	req := fleetRequest(s.size, s.seed, i)
	resp, _, err := s.svc.client.Fleet(ctx, req)
	if err != nil {
		return work{}, err
	}
	if resp.Devices != s.size || resp.Unique < 1 || len(resp.Metrics) == 0 {
		return work{}, fmt.Errorf("fleet returned %d devices, %d unique configs, %d metrics", resp.Devices, resp.Unique, len(resp.Metrics))
	}
	if i%s.every == 0 {
		s.mu.Lock()
		if len(s.samples) < fleetSamples {
			s.samples = append(s.samples, fleetSample{req, resp})
		}
		s.mu.Unlock()
	}
	return work{devices: resp.Devices, frames: int(float64(resp.Devices) * s.framesPerDevice)}, nil
}

// inProcess runs req's population with fleet.Run in this process, on
// its own segment cache, and renders the response the server would.
func inProcess(ctx context.Context, req api.FleetRequest, mc *memo.Cache) (api.FleetResponse, error) {
	req.Normalize()
	pop, err := req.ToPopulation()
	if err != nil {
		return api.FleetResponse{}, err
	}
	var agg sink.Agg
	out, err := fleet.Run(ctx, pop, &agg, fleet.Options{Memo: mc})
	if err != nil {
		return api.FleetResponse{}, err
	}
	return api.FleetResponse{Devices: out.Devices, Unique: out.Unique, Scheme: req.Scheme, Metrics: agg.Summaries()}, nil
}

// gate recomputes each sampled population in process: its aggregates
// must encode to exactly the bytes of the response the client decoded.
func (s *fleetSystem) gate(ctx context.Context) (int, int, error) {
	mismatched := 0
	mc := memo.NewCache(8192)
	for _, smp := range s.samples {
		want, err := inProcess(ctx, smp.req, mc)
		if err != nil {
			return 0, 0, err
		}
		a, err := json.Marshal(want)
		if err != nil {
			return 0, 0, err
		}
		b, err := json.Marshal(smp.resp)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(a, b) {
			mismatched++
		}
	}
	return len(s.samples), mismatched, nil
}

func (s *fleetSystem) close() error { return s.svc.close() }

// timingSink wraps a sink.Agg and accumulates the time spent in it.
type timingSink struct {
	agg *sink.Agg
	dur time.Duration
}

func (t *timingSink) Begin(sc sink.Schema) error {
	t0 := time.Now()
	err := t.agg.Begin(sc)
	t.dur += time.Since(t0)
	return err
}

func (t *timingSink) Append(row []sink.Value) error {
	t0 := time.Now()
	err := t.agg.Append(row)
	t.dur += time.Since(t0)
	return err
}

func (t *timingSink) Flush() error {
	t0 := time.Now()
	err := t.agg.Flush()
	t.dur += time.Since(t0)
	return err
}

// replayFleets caps the populations the traced run replays.
const replayFleets = 6

func (s *fleetSystem) layers(ctx context.Context, n int, lr *layerReport) error {
	sm := s.svc.serverLayers(lr)
	m := min(n, replayFleets)
	mc := memo.NewCache(8192)
	// The warm-up populations warm the replay's segment cache, as they
	// warmed the node's.
	for i := 0; i < fleetWarmup; i++ {
		if _, err := inProcess(ctx, warmFleetRequest(s.size, i), mc); err != nil {
			return err
		}
	}
	bodies := make([][]byte, m)
	resps := make([]any, m)
	var runUS, foldUS, summariesUS, unique float64
	for i := 0; i < m; i++ {
		req := fleetRequest(s.size, s.seed, i)
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		bodies[i] = b
		var agg sink.Agg
		ts := &timingSink{agg: &agg}
		t0 := time.Now()
		req.Normalize()
		pop, err := req.ToPopulation()
		if err != nil {
			return err
		}
		out, err := fleet.Run(ctx, pop, ts, fleet.Options{Memo: mc})
		if err != nil {
			return err
		}
		runUS += us(time.Since(t0))
		foldUS += us(ts.dur)
		t1 := time.Now()
		sums := agg.Summaries()
		summariesUS += us(time.Since(t1))
		unique += float64(out.Unique)
		resps[i] = api.FleetResponse{Devices: out.Devices, Unique: out.Unique, Scheme: req.Scheme, Metrics: sums}
	}
	k := float64(m)
	runUS, foldUS, summariesUS, unique = runUS/k, foldUS/k, summariesUS/k, unique/k

	// Sampling: Device(i) and its canonical key, per device.
	req := fleetRequest(s.size, s.seed, 0)
	req.Normalize()
	pop, err := req.ToPopulation()
	if err != nil {
		return err
	}
	sampleUS := meanOver(pop.Size, func(i int) { _ = pop.Device(i).Key() })

	d, err := replayAPI(bodies, api.DecodeFleetRequest, resps)
	if err != nil {
		return err
	}
	lr.set("api.decode_us", d.decodeUS)
	lr.set("api.key_us", d.keyUS)
	lr.set("api.marshal_us", d.marshalUS)
	lr.set("fleet.sample_us", sampleUS)
	lr.set("fleet.unique_configs", unique)
	lr.set("sink.fold_us", foldUS)
	lr.set("sink.summaries_us", summariesUS)

	keys := make([]string, n)
	for i := range keys {
		keys[i] = fleetRequest(s.size, s.seed, i).CacheKey()
	}
	body, err := json.Marshal(resps[0])
	if err != nil {
		return err
	}
	getNS, putNS, miss := replayCache([][]string{keys}, body, lr)
	cacheUS := (getNS + miss*putNS) / 1000
	sampleAll := sampleUS * float64(pop.Size)
	simulateUS := runUS - sampleAll - foldUS

	lr.row("api.client: marshal + decode", "span", sm.client-sm.clientRT)
	lr.row("http.loopback: client <-> node", "span", sm.clientRT-sm.node)
	lr.row("node: api.decode (incl. population validate)", "replay", d.decodeUS)
	lr.row("node: api.key", "replay", d.keyUS)
	lr.row("node: cache get, put on miss", "replay", cacheUS)
	lr.row("node: fleet sample + key, all devices", "replay", sampleAll)
	lr.row("node: fleet dedup + unique-config sessions", "replay", simulateUS)
	lr.row("node: sink fold, all devices", "replay", foldUS)
	lr.row("node: sink summaries", "replay", summariesUS)
	lr.row("node: api.marshal", "replay", d.marshalUS)
	lr.row("node: rest", "rest", sm.node-d.decodeUS-d.keyUS-cacheUS-runUS-summariesUS-d.marshalUS)
	lr.closeBudget(sm.client)
	return nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
