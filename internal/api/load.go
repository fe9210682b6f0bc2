package api

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"burstlink/internal/par"
	"burstlink/internal/units"
)

// LoadOptions configures a closed-loop load run: Concurrency workers
// each issue requests back to back until the shared schedule of Requests
// requests is drained.
type LoadOptions struct {
	// Concurrency is the number of closed-loop workers (default 8).
	Concurrency int
	// Requests is the total request count (default 256).
	Requests int
	// DupRate in [0,1) is the probability that a scheduled request
	// duplicates an earlier one — the near-duplicate configuration
	// workload shape the scenario cache exploits.
	DupRate float64
	// Sweep switches the generator from independent unique scenarios to
	// an axis-neighbor walk: each new configuration differs from the
	// previous one in exactly one knob (scheme, resolution, fps, length,
	// or bitrate). This is the sweep-shaped workload the delta-simulation
	// segment cache exploits: neighboring cells share every segment the
	// moved knob does not invalidate.
	Sweep bool
	// Seed makes the schedule reproducible.
	Seed int64
	// Now supplies the wall clock (pass time.Now). It is injected
	// because simulator packages are forbidden from reading the wall
	// clock themselves; only the measurement harness may.
	Now func() time.Time
}

// LoadReport summarizes a load run. Latency percentiles are over
// successful requests; Throughput counts successes per wall-clock
// second.
type LoadReport struct {
	Requests    int           `json:"requests"`
	Errors      int           `json:"errors"`
	FirstError  string        `json:"first_error,omitempty"`
	Wall        time.Duration `json:"wall_ns"`
	Throughput  float64       `json:"throughput_rps"`
	P50         time.Duration `json:"p50_ns"`
	P95         time.Duration `json:"p95_ns"`
	P99         time.Duration `json:"p99_ns"`
	Hits        int           `json:"cache_hits"`
	Misses      int           `json:"cache_misses"`
	Coalesced   int           `json:"coalesced"`
	HitRatio    float64       `json:"hit_ratio"`
	Concurrency int           `json:"concurrency"`
	DupRate     float64       `json:"dup_rate"`
}

// Schedule builds the deterministic request sequence of a load run:
// position i is, with probability DupRate, an exact duplicate of an
// earlier position, and otherwise the next configuration from an
// enumeration of distinct scenarios. The schedule is a pure function of
// (Requests, DupRate, Seed).
func Schedule(opts LoadOptions) []SessionRequest {
	rng := rand.New(rand.NewSource(opts.Seed))
	reqs := make([]SessionRequest, opts.Requests)
	unique := 0
	cur := uniqueRequest(0)
	for i := range reqs {
		if i > 0 && rng.Float64() < opts.DupRate {
			reqs[i] = reqs[rng.Intn(i)]
			continue
		}
		if opts.Sweep {
			if unique > 0 {
				cur = neighborRequest(cur, unique, rng.Intn(5))
			}
			reqs[i] = cur
		} else {
			reqs[i] = uniqueRequest(unique)
		}
		unique++
	}
	return reqs
}

// neighborRequest moves exactly one axis of the previous configuration —
// the sweep walk's step. step selects the axis; j keeps the bitrate axis
// marching forward. The walk may revisit cells (cyclic axes wrap); a
// revisited cell is a result-cache hit and computes no segments.
func neighborRequest(prev SessionRequest, j, step int) SessionRequest {
	req := prev
	switch step {
	case 0:
		schemes := []string{"conventional", "burst-only", "bypass-only", "burstlink"}
		for i, s := range schemes {
			if s == prev.Scheme {
				req.Scheme = schemes[(i+1)%len(schemes)]
				break
			}
		}
	case 1:
		for i, r := range loadResolutions {
			if r == prev.Resolution {
				req.Resolution = loadResolutions[(i+1)%len(loadResolutions)]
				break
			}
		}
	case 2:
		if req.FPS == 30 {
			req.FPS = 60
		} else {
			req.FPS = 30
		}
		req.PrebufferFrames = int(req.FPS)
	case 3:
		req.Seconds = 20 + (req.Seconds-20+1)%41
	default:
		req.Bitrate = units.DataRate(40+j) * units.Mbps
	}
	return req
}

// loadResolutions are the panel resolutions the generator cycles through.
var loadResolutions = []string{"FHD", "QHD", "4K"}

// uniqueRequest enumerates distinct session configurations by mixed-radix
// decoding of j, so any two distinct indices yield distinct scenarios.
func uniqueRequest(j int) SessionRequest {
	req := SessionRequest{Refresh: 60, BPP: 24}
	req.Scheme = []string{"conventional", "burst-only", "bypass-only", "burstlink"}[j%4]
	j /= 4
	req.Resolution = loadResolutions[j%len(loadResolutions)]
	j /= len(loadResolutions)
	req.FPS = []units.FPS{30, 60}[j%2]
	j /= 2
	req.Seconds = 20 + j%41
	j /= 41
	// The final axis is unbounded, so the enumeration never wraps onto
	// an earlier configuration.
	req.Bitrate = units.DataRate(40+j) * units.Mbps
	req.PrebufferFrames = int(req.FPS)
	return req
}

// RunLoad drives the schedule against the service at opts.Concurrency
// and reports throughput, latency percentiles, and the cache hit ratio
// observed through the X-Cache header (hits + coalesced over total).
// The service may be one node or a cluster router. The par pool is
// widened to Concurrency for the duration so every worker really runs
// its closed loop on its own goroutine.
func RunLoad(ctx context.Context, c *Client, opts LoadOptions) (LoadReport, error) {
	if opts.Now == nil {
		return LoadReport{}, fmt.Errorf("api: LoadOptions.Now is required (pass time.Now)")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Requests <= 0 {
		opts.Requests = 256
	}
	if opts.DupRate < 0 || opts.DupRate >= 1 {
		return LoadReport{}, fmt.Errorf("api: DupRate %g out of range [0,1)", opts.DupRate)
	}
	schedule := Schedule(opts)

	type outcome struct {
		latency time.Duration
		status  CacheStatus
		err     error
	}
	outcomes := make([]outcome, len(schedule))

	defer par.SetWorkers(par.SetWorkers(opts.Concurrency))
	start := opts.Now()
	// Worker w owns the strided indices w, w+C, w+2C, ... — disjoint
	// writes, the par contract — and issues them back to back.
	par.ForEach(opts.Concurrency, func(w int) {
		for i := w; i < len(schedule); i += opts.Concurrency {
			if ctx.Err() != nil {
				outcomes[i].err = ctx.Err()
				continue
			}
			t0 := opts.Now()
			_, status, err := c.Session(ctx, schedule[i])
			outcomes[i] = outcome{latency: opts.Now().Sub(t0), status: status, err: err}
		}
	})
	wall := opts.Now().Sub(start)

	rep := LoadReport{
		Requests:    len(schedule),
		Wall:        wall,
		Concurrency: opts.Concurrency,
		DupRate:     opts.DupRate,
	}
	latencies := make([]time.Duration, 0, len(outcomes))
	for _, o := range outcomes {
		if o.err != nil {
			rep.Errors++
			if rep.FirstError == "" {
				rep.FirstError = o.err.Error()
			}
			continue
		}
		latencies = append(latencies, o.latency)
		switch o.status {
		case CacheHit:
			rep.Hits++
		case CacheCoalesced:
			rep.Coalesced++
		default:
			rep.Misses++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 50)
	rep.P95 = percentile(latencies, 95)
	rep.P99 = percentile(latencies, 99)
	if wall > 0 {
		rep.Throughput = float64(len(latencies)) / wall.Seconds()
	}
	if n := len(latencies); n > 0 {
		rep.HitRatio = float64(rep.Hits+rep.Coalesced) / float64(n)
	}
	return rep, nil
}

// percentile returns the p-th percentile of sorted latencies (nearest
// rank), or 0 when empty.
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
