// Package server implements blkd, the BurstLink simulation service: the
// repository's engines (sessions, sweeps, the §6 experiment tables)
// exposed as versioned JSON endpoints behind a service layer built for
// the workload shape downstream planners actually generate — many
// near-duplicate configurations. The layer stacks three mechanisms:
//
//   - a scenario-keyed LRU result cache (internal/cache): requests are
//     canonicalized (internal/api) and identical scenarios return
//     byte-identical cached bodies, which determinism makes provably
//     safe;
//   - coalescing admission: concurrent requests for the same canonical
//     scenario attach to one in-flight execution instead of recomputing
//     it (the result cache's Do), and sweep cells share the session
//     cache, so overlapping sweeps coalesce cell by cell onto one par
//     execution;
//   - bounded concurrency with queue backpressure: at most MaxConcurrent
//     model executions run at once (a par.Gate), at most QueueDepth
//     requests wait, and everything beyond that is rejected with 429 +
//     Retry-After instead of piling onto the run queue.
//
// The package is on parcheck's explicit allowlist: its accept loop and
// graceful drain are inherently concurrent and cannot be expressed as
// bounded index fan-out over the par pool.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/cache"
	"burstlink/internal/cluster"
	"burstlink/internal/exp"
	"burstlink/internal/fleet"
	"burstlink/internal/memo"
	"burstlink/internal/par"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/session"
	"burstlink/internal/sink"
)

// Config tunes the service layer. Zero values select the defaults noted
// on each field.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// NodeID names this instance in /v1/stats and /v1/health — the
	// identity cluster tooling attributes per-node counters to
	// (default "blkd").
	NodeID string
	// MaxConcurrent bounds simultaneously executing model runs
	// (default 2×GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot; beyond
	// it the server answers 429 + Retry-After (default 64).
	QueueDepth int
	// CacheEntries sizes the scenario result cache (default 4096).
	CacheEntries int
	// SegmentCacheEntries sizes the delta-simulation segment cache that
	// sits under the result cache (default 8192).
	SegmentCacheEntries int
	// RequestTimeout is the per-request execution deadline (default 30s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain on shutdown (default 10s).
	DrainTimeout time.Duration
	// RetryAfterSeconds is advertised on 429 responses (default 1).
	RetryAfterSeconds int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.NodeID == "" {
		c.NodeID = "blkd"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.SegmentCacheEntries <= 0 {
		c.SegmentCacheEntries = 8192
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	return c
}

// Server is one blkd instance: a handler tree plus the shared service
// state (coalescing result cache, admission gate, counters).
type Server struct {
	cfg   Config
	p     pipeline.Platform
	m     power.Model
	eng   session.Engine
	cache *cache.LRUOf[[]byte]
	gate  *par.Gate
	mux   *http.ServeMux

	requests atomic.Uint64
	rejected atomic.Uint64
	queued   atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64
}

// New builds a Server over the default platform and power model.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	p, m := pipeline.DefaultPlatform(), power.Default()
	s := &Server{
		cfg:   cfg,
		p:     p,
		m:     m,
		eng:   session.Engine{P: p, M: m, Memo: memo.NewCache(cfg.SegmentCacheEntries)},
		cache: cache.NewLRU(cfg.CacheEntries),
		gate:  par.NewGate(cfg.MaxConcurrent),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/session", s.admit(s.handleSession))
	s.mux.HandleFunc("POST /v1/sweep", s.admit(s.handleSweep))
	s.mux.HandleFunc("POST /v1/fleet", s.admit(s.handleFleet))
	s.mux.HandleFunc("GET /v1/exp", s.handleExpList)
	s.mux.HandleFunc("GET /v1/exp/{id}", s.admit(s.handleExp))
	return s
}

// Handler returns the service's HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// admit wraps a compute endpoint in the admission path: take an
// execution slot (queueing up to QueueDepth), reject with backpressure
// beyond that, and bound the execution with the per-request timeout.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if !s.gate.TryAcquire() {
			if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
				s.queued.Add(-1)
				s.rejected.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
				api.WriteError(w, api.Errf(http.StatusTooManyRequests, "saturated",
					"execution slots and queue are full; retry after %ds", s.cfg.RetryAfterSeconds))
				return
			}
			err := s.gate.Acquire(r.Context())
			s.queued.Add(-1)
			if err != nil {
				// The client gave up while queued; nothing to write.
				return
			}
		}
		defer s.gate.Release()

		cur := s.inFlight.Add(1)
		for {
			p := s.peak.Load()
			if cur <= p || s.peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer s.inFlight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// cacheStatus maps a result-cache outcome to its X-Cache value.
var cacheStatus = [...]api.CacheStatus{
	cache.Hit:       api.CacheHit,
	cache.Miss:      api.CacheMiss,
	cache.Coalesced: api.CacheCoalesced,
}

// execute produces the response body for key through the result cache:
// a cached body is a hit, a request that finds the same scenario in
// flight shares its result, and otherwise this request computes. A
// successful body is cached, so each scenario is computed once while
// it stays cached.
func (s *Server) execute(ctx context.Context, key string, compute func() ([]byte, *api.Error)) ([]byte, api.CacheStatus, *api.Error) {
	body, outcome, err := s.cache.Do(key, func() ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, api.ContextError(err)
		}
		body, aerr := compute()
		if aerr != nil {
			return nil, aerr
		}
		return body, nil
	})
	if err != nil {
		return nil, "", api.AsError(err)
	}
	return body, cacheStatus[outcome], nil
}

// runSession executes one normalized, validated session request.
func (s *Server) runSession(ctx context.Context, req api.SessionRequest) ([]byte, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.ContextError(err)
	}
	cfg, err := req.ToConfig()
	if err != nil {
		return nil, api.Errf(http.StatusBadRequest, "bad_request", "%v", err)
	}
	res, err := s.eng.Run(cfg)
	if err != nil {
		// A valid request can still describe an infeasible scenario
		// (e.g. a resolution the platform cannot scan out in a frame
		// window); that is the scenario's fault, not the syntax's.
		return nil, api.Errf(http.StatusUnprocessableEntity, "infeasible", "%v", err)
	}
	return marshalBody(api.SessionResponse{
		Scheme:      res.Scheme.String(),
		Frames:      res.Frames,
		Stalls:      res.Stalls,
		AvgPower:    res.AvgPower,
		Energy:      res.Energy,
		BatteryLife: res.BatteryLife,
		DRAMRead:    res.DRAMRead,
		DRAMWrite:   res.DRAMWrite,
		BufferPeak:  res.Buffer.Peak,
	})
}

// handleSession serves POST /v1/session.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeSessionRequest(r.Body)
	if err != nil {
		api.WriteError(w, err)
		return
	}
	body, status, aerr := s.execute(r.Context(), req.CacheKey(), func() ([]byte, *api.Error) {
		return s.runSession(r.Context(), req)
	})
	writeResult(w, body, status, aerr)
}

// handleSweep serves POST /v1/sweep: cells fan out on the par pool, and
// each cell runs through the same cache + coalescing executor as
// /v1/session — so overlapping sweeps, or a sweep overlapping prior
// session requests, reuse each other's cells.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeSweepRequest(r.Body)
	if err != nil {
		api.WriteError(w, err)
		return
	}
	sweepKey := req.CacheKey()
	body, status, aerr := s.execute(r.Context(), sweepKey, func() ([]byte, *api.Error) {
		cells := req.Expand()
		type cellResult struct {
			body []byte
			aerr *api.Error
		}
		results := par.Map(len(cells), func(i int) cellResult {
			cell := cells[i]
			cell.Normalize()
			body, _, aerr := s.execute(r.Context(), cell.CacheKey(), func() ([]byte, *api.Error) {
				return s.runSession(r.Context(), cell)
			})
			return cellResult{body, aerr}
		})
		resp := api.SweepResponse{Cells: make([]api.SweepCell, len(cells))}
		for i, res := range results {
			if res.aerr != nil {
				return nil, api.Errf(res.aerr.Status, res.aerr.Code,
					"cell %d (%s %s %dfps): %s", i, cells[i].Scheme, cells[i].Resolution, cells[i].FPS, res.aerr.Message)
			}
			resp.Cells[i] = api.SweepCell{
				Scheme:     cells[i].Scheme,
				Resolution: cells[i].Resolution,
				FPS:        cells[i].FPS,
				Result:     json.RawMessage(res.body),
			}
		}
		return marshalBody(resp)
	})
	writeResult(w, body, status, aerr)
}

// runFleet executes one normalized, validated fleet request into the
// final response body. The executor shares the server's segment cache,
// so fleet devices reuse segments that session and sweep requests
// already computed (and vice versa).
func (s *Server) runFleet(ctx context.Context, req api.FleetRequest, progress func(done, total int)) ([]byte, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.ContextError(err)
	}
	pop, err := req.ToPopulation()
	if err != nil {
		return nil, api.Errf(http.StatusBadRequest, "bad_fleet", "%v", err)
	}
	var agg sink.Agg
	out, err := fleet.Run(ctx, pop, &agg, fleet.Options{
		Memo:     s.eng.Memo,
		Platform: s.p,
		Model:    s.m,
		Progress: progress,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, api.ContextError(cerr)
		}
		// A valid spec can still sample an infeasible scenario on some
		// class × content combination at simulation depth.
		return nil, api.Errf(http.StatusUnprocessableEntity, "infeasible", "%v", err)
	}
	return marshalBody(api.FleetResponse{
		Devices: out.Devices,
		Unique:  out.Unique,
		Scheme:  req.Scheme,
		Metrics: agg.Summaries(),
	})
}

// handleFleet serves POST /v1/fleet. The plain mode runs through the
// result cache and coalescing like every other compute endpoint — fleet
// aggregates are bit-identical across worker counts and cache states, so
// a cached body is indistinguishable from a fresh run. Stream mode
// writes NDJSON progress events followed by the final result; it
// bypasses the result cache (the transport is the point) but still
// shares the segment cache underneath.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeFleetRequest(r.Body)
	if err != nil {
		api.WriteError(w, err)
		return
	}
	if req.Stream {
		s.streamFleet(w, r, req)
		return
	}
	body, status, aerr := s.execute(r.Context(), req.CacheKey(), func() ([]byte, *api.Error) {
		return s.runFleet(r.Context(), req, nil)
	})
	writeResult(w, body, status, aerr)
}

// streamFleet writes the NDJSON event stream for a streaming fleet run:
// progress events whenever the completed percentage advances, then the
// result. Once the first event is written the status is committed, so a
// late failure surfaces as an error event rather than an error status.
func (s *Server) streamFleet(w http.ResponseWriter, r *http.Request, req api.FleetRequest) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	lastPct := -1
	// fleet.Run serializes Progress calls, so the writer needs no lock.
	progress := func(done, total int) {
		pct := done * 100 / total
		if pct == lastPct {
			return
		}
		lastPct = pct
		// A failed write means the client is gone; the run's ctx check
		// will notice the disconnect.
		_ = enc.Encode(api.FleetEvent{Progress: &api.FleetProgress{Done: done, Total: total}})
		if flusher != nil {
			flusher.Flush()
		}
	}
	body, aerr := s.runFleet(r.Context(), req, progress)
	if aerr != nil {
		_ = enc.Encode(struct {
			Error *api.Error `json:"error"`
		}{aerr})
		return
	}
	var resp api.FleetResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		_ = enc.Encode(struct {
			Error *api.Error `json:"error"`
		}{api.Errf(http.StatusInternalServerError, "encoding_failed", "%v", err)})
		return
	}
	_ = enc.Encode(api.FleetEvent{Result: &resp})
}

// handleExp serves GET /v1/exp/{id}: one §6 table, JSON-encoded, through
// the same cache (experiment tables are deterministic too).
func (s *Server) handleExp(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := exp.ByID(id)
	if err != nil {
		api.WriteError(w, api.Errf(http.StatusNotFound, "unknown_experiment", "%v", err))
		return
	}
	body, status, aerr := s.execute(r.Context(), api.ExpCacheKey(id), func() ([]byte, *api.Error) {
		tab, err := e.Run()
		if err != nil {
			return nil, api.Errf(http.StatusInternalServerError, "experiment_failed", "%s: %v", id, err)
		}
		b, err := tab.JSON()
		if err != nil {
			return nil, api.Errf(http.StatusInternalServerError, "encoding_failed", "%s: %v", id, err)
		}
		return b, nil
	})
	writeResult(w, body, status, aerr)
}

// handleExpList serves GET /v1/exp.
func (s *Server) handleExpList(w http.ResponseWriter, r *http.Request) {
	body, aerr := marshalBody(api.ExperimentList{Experiments: exp.IDs()})
	writeResult(w, body, "", aerr)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A failed write means the prober is gone; there is nothing to do.
	_, _ = w.Write([]byte("ok\n"))
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, aerr := marshalBody(s.Stats())
	writeResult(w, body, "", aerr)
}

// handleHealth serves GET /v1/health: the node's identity plus the
// instantaneous occupancy a router or balancer steers on.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body, aerr := marshalBody(s.NodeHealth())
	writeResult(w, body, "", aerr)
}

// NodeHealth snapshots the node's identity and instantaneous load.
func (s *Server) NodeHealth() api.Health {
	cs := s.cache.Stats()
	ms := s.eng.Memo.Stats()
	return api.Health{
		Node:           s.cfg.NodeID,
		Status:         "ok",
		InFlight:       int(s.inFlight.Load()),
		Queued:         int(s.queued.Load()),
		CacheEntries:   cs.Entries,
		CacheFill:      float64(cs.Entries) / float64(cs.Capacity),
		SegmentEntries: ms.Entries,
		SegmentFill:    float64(ms.Entries) / float64(ms.Capacity),
	}
}

// handleSnapshot serves GET /v1/snapshot: the node's result and segment
// caches as a warm-restart export (see internal/cluster.Snapshot and
// blkd -warm).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		api.WriteError(w, api.Errf(http.StatusInternalServerError, "snapshot_failed", "%v", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// A short write means the client disconnected mid-download.
	_, _ = w.Write(buf.Bytes())
}

// WriteSnapshot exports the node's cache state to w: result cache and
// segment cache, both in recency order, so an import reproduces hit and
// eviction behavior exactly.
func (s *Server) WriteSnapshot(w io.Writer) error {
	snap := cluster.Snapshot{
		Node:     s.cfg.NodeID,
		Results:  s.cache.Dump(),
		Segments: s.eng.Memo.Dump(),
	}
	return snap.Encode(w)
}

// Warm imports a snapshot previously exported by WriteSnapshot (on this
// node or any other — determinism makes cached values node-portable),
// replaying it into the result and segment caches. It returns the
// imported snapshot's metadata. Counters are untouched: a warmed node's
// subsequent hit/miss accounting is identical to the exporting node's.
func (s *Server) Warm(r io.Reader) (*cluster.Snapshot, error) {
	snap, err := cluster.DecodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	s.cache.Load(snap.Results)
	s.eng.Memo.Load(snap.Segments)
	return snap, nil
}

// Stats snapshots the service counters, including the delta-simulation
// segment cache that sits under the result cache.
func (s *Server) Stats() api.Stats {
	cs := s.cache.Stats()
	ms := s.eng.Memo.Stats()
	return api.Stats{
		Node:             s.cfg.NodeID,
		Requests:         s.requests.Load(),
		Rejected:         s.rejected.Load(),
		CacheHits:        cs.Hits,
		CacheMisses:      cs.Misses,
		Coalesced:        cs.Coalesced,
		CacheEntries:     cs.Entries,
		CacheCapacity:    cs.Capacity,
		HitRatio:         cs.HitRatio(),
		InFlight:         int(s.inFlight.Load()),
		Queued:           int(s.queued.Load()),
		MaxInFlight:      int(s.peak.Load()),
		SegmentHits:      ms.Hits,
		SegmentMisses:    ms.Misses,
		SegmentEvictions: ms.Evictions,
		SegmentCoalesced: ms.Coalesced,
		SegmentEntries:   ms.Entries,
		SegmentCapacity:  ms.Capacity,
		SegmentHitRatio:  ms.HitRatio(),
	}
}

// marshalBody encodes v, mapping the (practically impossible) encode
// failure to a 500.
func marshalBody(v any) ([]byte, *api.Error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, api.Errf(http.StatusInternalServerError, "encoding_failed", "%v", err)
	}
	return b, nil
}

// writeResult writes a computed body (with its cache status) or the
// error that replaced it.
func writeResult(w http.ResponseWriter, body []byte, status api.CacheStatus, aerr *api.Error) {
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	if status != "" {
		w.Header().Set(api.CacheHeader, string(status))
	}
	w.Header().Set("Content-Type", "application/json")
	// A short write means the client disconnected mid-response.
	_, _ = w.Write(body)
}

// ListenAndServe listens on cfg.Addr and serves until ctx is canceled,
// then drains gracefully: the listener closes, in-flight requests get up
// to DrainTimeout to finish, and only then does the call return.
func (s *Server) ListenAndServe(ctx context.Context) error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return s.ServeListener(ctx, l)
}

// ServeListener serves on l until ctx is canceled, then drains. The
// listener is owned (and closed) by the server from this point on.
func (s *Server) ServeListener(ctx context.Context, l net.Listener) error {
	return ServeHandler(ctx, l, s.Handler(), s.cfg.DrainTimeout)
}

// ServeHandler serves h on l until ctx is canceled, then drains
// gracefully: the listener closes, in-flight requests get up to drain to
// finish, and only then does the call return. It is the shared process
// lifecycle of every blkd-shaped daemon — the compute node (Server) and
// the cluster router (internal/cluster.Router) both run on it.
func ServeHandler(ctx context.Context, l net.Listener, h http.Handler, drain time.Duration) error {
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// The serve ctx is already canceled here; a drain context derived
		// from it would make Shutdown return immediately instead of
		// granting the grace period.
		//lint:ignore ctxcheck drain deadline must outlive the canceled serve ctx
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := httpSrv.Shutdown(dctx); err != nil {
			return fmt.Errorf("server: drain: %w", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	}
}

// Start serves on l in the background and returns a stop function that
// triggers the graceful drain and waits for it — the in-process form the
// bench harness and examples use.
func (s *Server) Start(l net.Listener) (stop func() error) {
	return StartHandler(l, s.Handler(), s.cfg.DrainTimeout)
}

// StartHandler is ServeHandler in the background: it serves h on l and
// returns a stop function that triggers the graceful drain and waits
// for it.
func StartHandler(l net.Listener, h http.Handler, drain time.Duration) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeHandler(ctx, l, h, drain) }()
	return func() error {
		cancel()
		return <-done
	}
}
