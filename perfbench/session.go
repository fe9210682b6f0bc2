package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"burstlink/internal/api"
	"burstlink/internal/units"
)

// session-routed: two closed-loop clients POST /v1/session through a
// cluster.Router to two nodes, all over loopback. About half the
// requests duplicate an earlier one, and the distinct scenarios
// outnumber the two nodes' combined result-cache entries, so the LRU
// evicts. This is the full client → router → node → engine → bytes path.
func init() {
	register(workloadSpec{
		name:    "session-routed",
		clients: 2,
		params: func(sz size) map[string]any {
			return map[string]any{"clients": 2, "nodes": 2, "router": true, "dup_rate": sessionDupRate,
				"warmup_requests": sessionWarmup(sz), "result_cache_entries_per_node": 4096}
		},
		setup: setupSessionRouted,
	})
}

const sessionDupRate = 0.5

func sessionWarmup(sz size) int {
	if sz == smokeSize {
		return 20
	}
	return 3000
}

var (
	sessionSchemes     = []string{"conventional", "burst-only", "bypass-only", "burstlink"}
	sessionResolutions = []string{"FHD", "QHD", "4K"}
	sessionFPS         = []units.FPS{30, 60}
)

// sessionScenario enumerates distinct session scenarios by mixed-radix
// decoding of u; the last axis, the bitrate above base, is unbounded,
// so distinct u never collide. Timed runs use a base of at least 30
// Mbit/s and warm-ups 5 Mbit/s (plus at most a few kbit/s), so a
// warm-up never preloads a measured result.
func sessionScenario(u int64, base units.DataRate) api.SessionRequest {
	req := api.SessionRequest{Refresh: 60, BPP: 24}
	req.Scheme = sessionSchemes[u%4]
	u /= 4
	req.Resolution = sessionResolutions[u%3]
	u /= 3
	req.FPS = sessionFPS[u%2]
	u /= 2
	req.Seconds = 20 + int(u%41)
	u /= 41
	req.Bitrate = base + units.DataRate(u)*units.Kbps
	req.PrebufferFrames = int(req.FPS)
	return req
}

// measuredBase is the timed window's bitrate base: 30 to 40 Mbit/s,
// chosen by the seed.
func measuredBase(seed int64) units.DataRate {
	return 30*units.Mbps + units.DataRate(uint64(seed)%1000)*10*units.Kbps
}

const warmBase = 5 * units.Mbps

// schedule is the duplicate-heavy request order: position i repeats an
// earlier position with probability dup, and otherwise takes the next
// distinct scenario. It is generated on demand, a pure function of the
// seed.
type schedule struct {
	mu     sync.Mutex
	rng    *rand.Rand
	dup    float64
	pos    []int64 // scenario index of each position
	unique int64
}

func newSchedule(seed int64, dup float64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), dup: dup}
}

// at returns the scenario index of position i.
func (s *schedule) at(i int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pos) <= i {
		n := len(s.pos)
		if n > 0 && s.rng.Float64() < s.dup {
			s.pos = append(s.pos, s.pos[s.rng.Intn(n)])
			continue
		}
		s.pos = append(s.pos, s.unique)
		s.unique++
	}
	return s.pos[i]
}

// sessionSample is one timed request and the response the client
// decoded, kept for the correctness gate.
type sessionSample struct {
	req  api.SessionRequest
	resp api.SessionResponse
}

type sessionRouted struct {
	svc   *service
	sched *schedule
	base  units.DataRate
	every int // sample every n-th position

	mu      sync.Mutex
	samples []sessionSample
}

// sessionSamples caps the responses kept for the correctness gate.
const sessionSamples = 256

func setupSessionRouted(cfg runConfig, tr *tracer) (system, error) {
	svc, err := startService(2, true, 2, tr)
	if err != nil {
		return nil, err
	}
	s := &sessionRouted{svc: svc, sched: newSchedule(cfg.seed, sessionDupRate), base: measuredBase(cfg.seed), every: 97}
	if cfg.size == smokeSize {
		s.every = 3
	}
	err = warm(2, sessionWarmup(cfg.size), func(i int) error {
		_, _, err := svc.client.Session(context.Background(), sessionScenario(int64(i), warmBase))
		return err
	})
	if err != nil {
		_ = svc.close()
		return nil, err
	}
	return s, nil
}

func (s *sessionRouted) request(i int) api.SessionRequest {
	return sessionScenario(s.sched.at(i), s.base)
}

func (s *sessionRouted) op(ctx context.Context, i int) (work, error) {
	req := s.request(i)
	resp, _, err := s.svc.client.Session(ctx, req)
	if err != nil {
		return work{}, err
	}
	if want := req.Seconds * int(req.FPS); resp.Frames != want {
		return work{}, fmt.Errorf("session played %d frames, want %d", resp.Frames, want)
	}
	if i%s.every == 0 {
		s.mu.Lock()
		if len(s.samples) < sessionSamples {
			s.samples = append(s.samples, sessionSample{req, resp})
		}
		s.mu.Unlock()
	}
	return work{devices: 1, frames: resp.Frames}, nil
}

// gate re-sends every sampled request through the router and straight
// to the owner Ring.OwnerIndex names: the two bodies and the re-encoded
// timed response must be byte-identical.
func (s *sessionRouted) gate(ctx context.Context) (int, int, error) {
	mismatched := 0
	ring := s.svc.router.Ring()
	for _, smp := range s.samples {
		body, err := json.Marshal(smp.req)
		if err != nil {
			return 0, 0, err
		}
		routed, err := s.svc.post(ctx, s.svc.front, "/v1/session", body)
		if err != nil {
			return 0, 0, err
		}
		direct, err := s.svc.post(ctx, s.svc.urls[ring.OwnerIndex(smp.req.CacheKey())], "/v1/session", body)
		if err != nil {
			return 0, 0, err
		}
		timed, err := json.Marshal(smp.resp)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(routed, direct) || !bytes.Equal(timed, direct) {
			mismatched++
		}
	}
	return len(s.samples), mismatched, nil
}

func (s *sessionRouted) close() error { return s.svc.close() }

// Replay caps: the api and engine replays take the run's first inputs,
// enough for stable means without stretching the traced run.
const (
	replayRequests = 3000
	replayConfigs  = 1500
)

func (s *sessionRouted) layers(ctx context.Context, n int, lr *layerReport) error {
	sm := s.svc.serverLayers(lr)
	reqs := make([]api.SessionRequest, n)
	keys := make([]string, n)
	for i := range reqs {
		reqs[i] = s.request(i)
		keys[i] = reqs[i].CacheKey()
	}

	// The router: owner lookups over the key stream, and the skew of its
	// own forwarding counters.
	ring := s.svc.router.Ring()
	owners := make([]int, n)
	ownerUS := meanOver(n, func(i int) { owners[i] = ring.OwnerIndex(keys[i]) })
	lr.set("cluster.owner_ns", ownerUS*1000)
	cs, err := s.svc.client.ClusterStats(ctx)
	if err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	var total, most uint64
	for _, f := range cs.Forwarded {
		total += f.Requests
		most = max(most, f.Requests)
	}
	if total > 0 {
		lr.set("cluster.skew", float64(most)/(float64(total)/float64(len(cs.Forwarded))))
	}

	m := min(n, replayRequests)
	cfgs, err := sessionConfigs(reqs[:m])
	if err != nil {
		return err
	}
	er, err := replayEngine(cfgs[:min(len(cfgs), replayConfigs)], lr)
	if err != nil {
		return err
	}
	bodies := make([][]byte, m)
	for i := range bodies {
		if bodies[i], err = json.Marshal(reqs[i]); err != nil {
			return err
		}
	}
	d, err := replayAPI(bodies, api.DecodeSessionRequest, er.responses)
	if err != nil {
		return err
	}
	lr.set("api.decode_us", d.decodeUS)
	lr.set("api.key_us", d.keyUS)
	lr.set("api.marshal_us", d.marshalUS)
	// The router re-encodes the decoded request before forwarding it.
	forwardUS := meanOver(m, func(i int) { _, _ = json.Marshal(reqs[i]) })

	streams := make([][]string, ring.Len())
	for i, k := range keys {
		streams[owners[i]] = append(streams[owners[i]], k)
	}
	body, err := json.Marshal(er.responses[0])
	if err != nil {
		return err
	}
	getNS, putNS, miss := replayCache(streams, body, lr)

	routerParts := d.decodeUS + d.keyUS + forwardUS + ownerUS
	nodeCache := (getNS + miss*putNS) / 1000
	nodeParts := d.decodeUS + d.keyUS + nodeCache + miss*(er.runUS+d.marshalUS)
	lr.row("api.client: marshal + decode", "span", sm.client-sm.clientRT)
	lr.row("http.loopback: client <-> router", "span", sm.clientRT-sm.front)
	lr.row("router: api.decode", "replay", d.decodeUS)
	lr.row("router: api.key", "replay", d.keyUS)
	lr.row("router: re-encode for forwarding", "replay", forwardUS)
	lr.row("router: cluster.owner", "replay", ownerUS)
	lr.row("router: rest", "rest", sm.front-sm.hop-routerParts)
	lr.row("cluster.hop: router <-> node", "span", sm.hop-sm.node)
	lr.row("node: api.decode", "replay", d.decodeUS)
	lr.row("node: api.key", "replay", d.keyUS)
	lr.row("node: cache get, put on miss", "replay", nodeCache)
	lr.row(fmt.Sprintf("node: session.run x miss %.2f", miss), "replay", miss*er.runUS)
	lr.row(fmt.Sprintf("node: api.marshal x miss %.2f", miss), "replay", miss*d.marshalUS)
	lr.row("node: rest", "rest", sm.node-nodeParts)
	lr.closeBudget(sm.client)
	return nil
}
