package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"burstlink/internal/api"
	"burstlink/internal/par"
	"burstlink/internal/session"
	"burstlink/internal/units"
)

// sweep: one closed-loop client POSTs /v1/sweep straight to one node.
// Every sweep is 4 schemes × 3 resolutions × 2 fps at a new (seconds,
// bitrate) point, so no cell key repeats and the result cache only
// misses, while consecutive sweeps share timeline and power-period
// segments. The session engine's segments, memo keying and cloning and
// the par cell fan-out do most of the work.
func init() {
	register(workloadSpec{
		name:    "sweep",
		clients: 1,
		params: func(sz size) map[string]any {
			return map[string]any{"clients": 1, "nodes": 1, "router": false, "cells_per_sweep": sweepCells,
				"warmup_sweeps": sweepWarmup(sz)}
		},
		setup: setupSweep,
	})
}

const sweepCells = 24

// sweepSamples caps the sweeps kept for the correctness gate, which
// re-requests every one of their cells.
const sweepSamples = 32

func sweepWarmup(sz size) int {
	if sz == smokeSize {
		return 2
	}
	return 100
}

// sweepRequest is sweep i over base: the bitrate moves by 1 kbit/s per
// sweep, so every cell of every sweep is a distinct scenario.
func sweepRequest(i int, base units.DataRate, seed int64) api.SweepRequest {
	return api.SweepRequest{
		Schemes:     sessionSchemes,
		Resolutions: sessionResolutions,
		FPS:         sessionFPS,
		Refresh:     60,
		Seconds:     20 + int((int64(i)+seed)%41),
		Bitrate:     base + units.DataRate(i)*units.Kbps,
	}
}

type sweepSample struct {
	req  api.SweepRequest
	resp api.SweepResponse
}

type sweepSystem struct {
	svc   *service
	seed  int64
	base  units.DataRate
	every int

	mu      sync.Mutex
	samples []sweepSample
}

func setupSweep(cfg runConfig, tr *tracer) (system, error) {
	svc, err := startService(1, false, 1, tr)
	if err != nil {
		return nil, err
	}
	s := &sweepSystem{svc: svc, seed: cfg.seed, base: measuredBase(cfg.seed), every: 16}
	if cfg.size == smokeSize {
		s.every = 2
	}
	err = warm(1, sweepWarmup(cfg.size), func(i int) error {
		_, _, err := svc.client.Sweep(context.Background(), sweepRequest(i, warmBase, cfg.seed))
		return err
	})
	if err != nil {
		_ = svc.close()
		return nil, err
	}
	return s, nil
}

func (s *sweepSystem) op(ctx context.Context, i int) (work, error) {
	req := sweepRequest(i, s.base, s.seed)
	resp, _, err := s.svc.client.Sweep(ctx, req)
	if err != nil {
		return work{}, err
	}
	if len(resp.Cells) != sweepCells {
		return work{}, fmt.Errorf("sweep returned %d cells, want %d", len(resp.Cells), sweepCells)
	}
	frames := 0
	for _, c := range resp.Cells {
		frames += req.Seconds * int(c.FPS)
	}
	if i%s.every == 0 {
		s.mu.Lock()
		if len(s.samples) < sweepSamples {
			s.samples = append(s.samples, sweepSample{req, resp})
		}
		s.mu.Unlock()
	}
	return work{devices: sweepCells, frames: frames}, nil
}

// cells returns the normalized session requests of a sweep's cells, in
// response order, as the server expands them.
func cells(req api.SweepRequest) []api.SessionRequest {
	req.Normalize()
	out := req.Expand()
	for i := range out {
		out[i].Normalize()
	}
	return out
}

// gate POSTs every cell of each sampled sweep as its own /v1/session
// request: each body must be byte-identical to the sweep's cell.
func (s *sweepSystem) gate(ctx context.Context) (int, int, error) {
	checked, mismatched := 0, 0
	for _, smp := range s.samples {
		for k, cell := range cells(smp.req) {
			body, err := json.Marshal(cell)
			if err != nil {
				return 0, 0, err
			}
			direct, err := s.svc.post(ctx, s.svc.front, "/v1/session", body)
			if err != nil {
				return 0, 0, err
			}
			c := smp.resp.Cells[k]
			if !bytes.Equal(direct, c.Result) || c.Scheme != cell.Scheme || c.Resolution != cell.Resolution || c.FPS != cell.FPS {
				mismatched++
			}
		}
		checked++
	}
	return checked, mismatched, nil
}

func (s *sweepSystem) close() error { return s.svc.close() }

// replaySweeps caps the sweeps whose inputs the traced run replays.
const replaySweeps = 60

func (s *sweepSystem) layers(ctx context.Context, n int, lr *layerReport) error {
	sm := s.svc.serverLayers(lr)
	m := min(n, replaySweeps)
	reqs := make([]api.SweepRequest, m)
	bodies := make([][]byte, m)
	var cellReqs []api.SessionRequest
	for i := range reqs {
		reqs[i] = sweepRequest(i, s.base, s.seed)
		b, err := json.Marshal(reqs[i])
		if err != nil {
			return err
		}
		bodies[i] = b
		cellReqs = append(cellReqs, cells(reqs[i])...)
	}
	cfgs := make([]session.Config, len(cellReqs))
	for i, c := range cellReqs {
		cfg, err := c.ToConfig()
		if err != nil {
			return err
		}
		cfgs[i] = cfg
	}
	er, err := replayEngine(cfgs, lr)
	if err != nil {
		return err
	}

	// The sweep body embeds each cell's session body verbatim.
	resps := make([]any, m)
	for i := range resps {
		resp := api.SweepResponse{}
		for k, c := range cellReqs[i*sweepCells : (i+1)*sweepCells] {
			b, err := json.Marshal(er.responses[i*sweepCells+k])
			if err != nil {
				return err
			}
			resp.Cells = append(resp.Cells, api.SweepCell{Scheme: c.Scheme, Resolution: c.Resolution, FPS: c.FPS, Result: b})
		}
		resps[i] = resp
	}
	d, err := replayAPI(bodies, api.DecodeSweepRequest, resps)
	if err != nil {
		return err
	}
	cellKeyUS := meanOver(len(cellReqs), func(i int) { _ = cellReqs[i].CacheKey() })
	cellMarshalUS := meanOver(len(er.responses), func(i int) { _, _ = json.Marshal(er.responses[i]) })
	keyUS := d.keyUS + sweepCells*cellKeyUS
	marshalUS := d.marshalUS + sweepCells*cellMarshalUS
	lr.set("api.decode_us", d.decodeUS)
	lr.set("api.key_us", keyUS)
	lr.set("api.marshal_us", marshalUS)

	// The node's key stream: each sweep looks up its own key, then every
	// cell's, and files them all on the way out.
	var keys []string
	for i := 0; i < n; i++ {
		req := sweepRequest(i, s.base, s.seed)
		keys = append(keys, req.CacheKey())
		for _, c := range cells(req) {
			keys = append(keys, c.CacheKey())
		}
	}
	body, err := json.Marshal(er.responses[0])
	if err != nil {
		return err
	}
	getNS, putNS, miss := replayCache([][]string{keys}, body, lr)
	lookups := float64(sweepCells + 1)
	cacheUS := lookups * (getNS + miss*putNS) / 1000
	// The node runs the cells on the par pool, so the engine's share of
	// the handler's wall time is the serial cost over the pool's width.
	workers := par.Workers()
	engineUS := sweepCells * er.runUS / float64(workers)

	lr.row("api.client: marshal + decode", "span", sm.client-sm.clientRT)
	lr.row("http.loopback: client <-> node", "span", sm.clientRT-sm.node)
	lr.row("node: api.decode", "replay", d.decodeUS)
	lr.row("node: api.key (sweep + 24 cells)", "replay", keyUS)
	lr.row("node: cache get, put on miss (25 keys)", "replay", cacheUS)
	lr.row(fmt.Sprintf("node: session.run x 24 cells / %d par workers", workers), "replay", engineUS)
	lr.row("node: api.marshal (24 cells + sweep)", "replay", marshalUS)
	lr.row("node: rest", "rest", sm.node-d.decodeUS-keyUS-cacheUS-engineUS-marshalUS)
	lr.closeBudget(sm.client)
	return nil
}
