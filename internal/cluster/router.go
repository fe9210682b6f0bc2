package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"burstlink/internal/api"
)

// NodeHeader is the response header a router adds naming the backend
// that computed (or cached) the response — the observable form of the
// ring's ownership decision, which the cluster tests and the check.sh
// smoke assert on.
const NodeHeader = "X-Cluster-Node"

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Node names the router itself in its /v1/stats and /v1/health
	// documents (default "router").
	Node string
	// Backends are the member blkd base URLs (e.g.
	// "http://10.0.0.1:8080"). At least one is required.
	Backends []string
	// Client issues the forwarded requests (default: a client whose
	// idle pool keeps backendIdleConns connections per backend).
	Client *http.Client
}

// backendIdleConns is the default client's idle-connection pool per
// backend. net/http keeps 2 per host, so once more than 2 forwards to
// one backend overlap, each finishing one beyond the second closes its
// connection and the next forward dials a new one: 16 workers sending
// 800 sessions through a router opened 319–370 connections to its one
// node, against 16–17 with this pool. 64 matches a node's default
// QueueDepth, the most requests it holds waiting.
const backendIdleConns = 64

// Router is the thin routing front of a blkd fleet (`blkd -route
// node1,node2,...`): it decodes each request exactly as a backend
// would, canonicalizes it to its result-cache key, and forwards it to
// the ring owner of that key. Because the key — not the request bytes —
// picks the node, two spellings of the same scenario land on the same
// backend and hit the same cache entry, which is what keeps the fleet's
// aggregate hit ratio at single-node levels.
//
// The router holds no cache of its own and mutates nothing: every
// response body is the owning backend's bytes verbatim (plus the
// NodeHeader attribution), so the single-node wire-determinism
// guarantee survives the extra hop byte for byte.
type Router struct {
	node string
	ring *Ring
	hc   *http.Client
	mux  *http.ServeMux

	requests  atomic.Uint64
	forwarded []atomic.Uint64 // per ring-node index
}

// NewRouter builds a router over the given backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := NewRing(cfg.Backends, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Node == "" {
		cfg.Node = "router"
	}
	if cfg.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = backendIdleConns * ring.Len()
		tr.MaxIdleConnsPerHost = backendIdleConns
		cfg.Client = &http.Client{Transport: tr}
	}
	rt := &Router{
		node:      cfg.Node,
		ring:      ring,
		hc:        cfg.Client,
		mux:       http.NewServeMux(),
		forwarded: make([]atomic.Uint64, ring.Len()),
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/health", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	// A sweep executes wholly on its owner, whose session cache its
	// cells share; a fleet's key excludes Stream, so streamed and plain
	// runs share an owner.
	rt.mux.HandleFunc("POST /v1/session", routePost(rt, "/v1/session", api.DecodeSessionRequest))
	rt.mux.HandleFunc("POST /v1/sweep", routePost(rt, "/v1/sweep", api.DecodeSweepRequest))
	rt.mux.HandleFunc("POST /v1/fleet", routePost(rt, "/v1/fleet", api.DecodeFleetRequest))
	rt.mux.HandleFunc("GET /v1/exp", rt.handleExpList)
	rt.mux.HandleFunc("GET /v1/exp/{id}", rt.handleExp)
	return rt, nil
}

// Handler returns the router's HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Ring returns the router's membership ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// forward sends method path with body to the ring owner of key and
// copies the backend's response — status, cache/content headers, body —
// to w verbatim, adding the owning node under NodeHeader. Streaming
// responses (NDJSON fleet progress) flush event by event.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key, method, path string, body []byte) {
	rt.requests.Add(1)
	owner := rt.ring.OwnerIndex(key)
	rt.forwarded[owner].Add(1)
	node := rt.ring.nodes[owner]

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, node+path, rd)
	if err != nil {
		api.WriteError(w, api.Errf(http.StatusInternalServerError, "bad_forward", "%v", err))
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		// A round trip cut short by the inbound request's own context
		// says nothing about the node: answer as the node would.
		if cerr := r.Context().Err(); cerr != nil {
			api.WriteError(w, api.ContextError(cerr))
			return
		}
		api.WriteError(w, api.Errf(http.StatusBadGateway, "backend_unreachable", "node %s: %v", node, err))
		return
	}
	// Close failures after the copy carry no information we can act on.
	defer func() { _ = resp.Body.Close() }()

	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if cs := resp.Header.Get(api.CacheHeader); cs != "" {
		w.Header().Set(api.CacheHeader, cs)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(NodeHeader, node)
	w.WriteHeader(resp.StatusCode)
	copyFlushing(w, resp.Body)
}

// copyFlushing streams src to w, flushing after every read so NDJSON
// progress events cross the router hop as they happen instead of
// arriving in one buffered burst.
func copyFlushing(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			// A failed write means the client is gone; the backend copy
			// ends on its own read error.
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// routePost returns the handler for a POST endpoint: decode the body
// exactly as a backend would, re-encode the normalized request, and
// forward it to the ring owner of its canonical key.
func routePost[T interface{ CacheKey() string }](rt *Router, path string, decode func(io.Reader) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := decode(r.Body)
		if err != nil {
			api.WriteError(w, err)
			return
		}
		body, err := json.Marshal(req)
		if err != nil {
			api.WriteError(w, api.Errf(http.StatusInternalServerError, "encoding_failed", "%v", err))
			return
		}
		rt.forward(w, r, req.CacheKey(), http.MethodPost, path, body)
	}
}

// handleExp routes GET /v1/exp/{id} by the experiment's cache key.
func (rt *Router) handleExp(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.forward(w, r, api.ExpCacheKey(id), http.MethodGet, "/v1/exp/"+id, nil)
}

// handleExpList serves GET /v1/exp from the ring owner of
// ExpCacheKey("") — the catalogue is static and identical on every
// node.
func (rt *Router) handleExpList(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, api.ExpCacheKey(""), http.MethodGet, "/v1/exp", nil)
}

// handleStats serves GET /v1/stats: the router's own forwarding
// counters plus every backend's stats document, in ring order.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := api.ClusterStats{
		Router:   rt.node,
		Requests: rt.requests.Load(),
	}
	for i, node := range rt.ring.nodes {
		cs.Forwarded = append(cs.Forwarded, api.NodeCount{Node: node, Requests: rt.forwarded[i].Load()})
		st, err := rt.fetchStats(r.Context(), node)
		if err != nil {
			api.WriteError(w, api.Errf(http.StatusBadGateway, "backend_unreachable", "node %s: %v", node, err))
			return
		}
		cs.Nodes = append(cs.Nodes, st)
	}
	writeRouterJSON(w, cs)
}

// handleHealth serves GET /v1/health: the router is "ok" only when
// every backend probed ok; unreachable backends are reported, not
// fatal, so an operator sees the degraded membership.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	ch := api.ClusterHealth{Router: rt.node, Status: "ok"}
	for _, node := range rt.ring.nodes {
		h, err := rt.fetchHealth(r.Context(), node)
		if err != nil {
			ch.Status = "degraded"
			h = api.Health{Node: node, Status: "unreachable"}
		}
		ch.Nodes = append(ch.Nodes, h)
	}
	writeRouterJSON(w, ch)
}

// handleHealthz serves the router's own liveness probe.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A failed write means the prober is gone; there is nothing to do.
	_, _ = w.Write([]byte("ok\n"))
}

// fetchStats retrieves one backend's stats document.
func (rt *Router) fetchStats(ctx context.Context, node string) (api.Stats, error) {
	var st api.Stats
	err := rt.fetchJSON(ctx, node+"/v1/stats", &st)
	return st, err
}

// fetchHealth retrieves one backend's health document.
func (rt *Router) fetchHealth(ctx context.Context, node string) (api.Health, error) {
	var h api.Health
	err := rt.fetchJSON(ctx, node+"/v1/health", &h)
	return h, err
}

// fetchJSON GETs url and decodes the JSON body into out.
func (rt *Router) fetchJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return err
	}
	// Close failures after a full read carry no information we can act on.
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

// writeRouterJSON writes v as a JSON response.
func writeRouterJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		api.WriteError(w, api.Errf(http.StatusInternalServerError, "encoding_failed", "%v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A short write means the client disconnected mid-response.
	_, _ = w.Write(b)
}
