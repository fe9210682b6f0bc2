package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/cluster"
	"burstlink/internal/server"
)

// drain bounds each listener's graceful shutdown, as
// server.Config.DrainTimeout's default does. No request is in flight
// when the benchmark stops a server; the bound only has to outlast the
// 5 s a dialed but unused connection counts as active.
const drain = 10 * time.Second

// service is a set of in-process blkd nodes on loopback listeners,
// optionally fronted by a cluster.Router, plus the load client. Every
// node is server.New(server.Config{NodeID: …}) with all other fields at
// their defaults.
type service struct {
	nodes  []*server.Server
	urls   []string
	router *cluster.Router
	front  string // base URL the load client talks to
	stops  []func() error
	trs    []*http.Transport
	hc     *http.Client // the load client's HTTP client
	client *api.Client
}

// newTransport returns a dedicated transport holding at most conns
// connections per host: as many as there are closed-loop clients.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (s *service) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.stops = append(s.stops, server.StartHandler(l, h, drain))
	return "http://" + l.Addr().String(), nil
}

// startService starts n nodes and, when routed, a router in front of
// them; the load client gets its own transport sized to clients, and so
// does the router's forwarding client.
func startService(n int, routed bool, clients int, tr *tracer) (*service, error) {
	s := &service{}
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{NodeID: fmt.Sprintf("node%d", i)})
		u, err := s.serve(tr.handler(spanNode, srv.Handler()))
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, srv)
		s.urls = append(s.urls, u)
	}
	s.front = s.urls[0]
	if routed {
		hop := newTransport(clients)
		s.trs = append(s.trs, hop)
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Backends: s.urls,
			Client:   &http.Client{Transport: tr.transport(spanHopRT, hop)},
		})
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.router = rt
		if s.front, err = s.serve(tr.handler(spanFront, rt.Handler())); err != nil {
			_ = s.close()
			return nil, err
		}
	}
	ct := newTransport(clients)
	s.trs = append(s.trs, ct)
	s.hc = &http.Client{Transport: tr.transport(spanClientRT, ct)}
	s.client = api.NewClient(s.front).WithHTTPClient(s.hc)
	return s, nil
}

// close stops the router, then the nodes. Before each stop it drops the
// clients' idle connections: a server's drain counts a connection that
// never carried a request as active for its first 5 s.
func (s *service) close() error {
	closeIdle := func() {
		for _, t := range s.trs {
			t.CloseIdleConnections()
		}
	}
	var first error
	for i := len(s.stops) - 1; i >= 0; i-- {
		closeIdle()
		if err := s.stops[i](); err != nil && first == nil {
			first = err
		}
	}
	closeIdle()
	return first
}

// post sends body to base+path and returns the exact response bytes:
// the currency of the byte-identity checks.
func (s *service) post(ctx context.Context, base, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s%s: status %d", base, path, resp.StatusCode)
	}
	return data, nil
}

// warm runs n operations of fn on clients goroutines, outside any timed
// window, so connections, code paths and the runtime are warm before
// timing starts. fn must not touch the inputs the timed window uses.
func warm(clients, n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("warm-up %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return first
}

// nodeStats sums the nodes' Server.Stats counters; MaxInFlight is the
// highest node's.
func (s *service) nodeStats() api.Stats {
	var sum api.Stats
	for _, n := range s.nodes {
		st := n.Stats()
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.Coalesced += st.Coalesced
		sum.Rejected += st.Rejected
		sum.MaxInFlight = max(sum.MaxInFlight, st.MaxInFlight)
		sum.SegmentHits += st.SegmentHits
		sum.SegmentMisses += st.SegmentMisses
		sum.SegmentCoalesced += st.SegmentCoalesced
		sum.SegmentEvictions += st.SegmentEvictions
	}
	return sum
}

// serverLayers records the service counters and the span-derived layer
// times every HTTP workload shares, and returns the mean spans.
func (s *service) serverLayers(lr *layerReport) spanMeans {
	st := s.nodeStats()
	if total := st.CacheHits + st.CacheMisses + st.Coalesced; total > 0 {
		lr.set("server.result_hit_ratio", float64(st.CacheHits+st.Coalesced)/float64(total))
	}
	lr.set("server.coalesced", float64(st.Coalesced))
	lr.set("server.rejected", float64(st.Rejected))
	lr.set("server.max_in_flight", float64(st.MaxInFlight))
	if total := st.SegmentHits + st.SegmentMisses; total > 0 {
		lr.set("memo.hit_ratio", float64(st.SegmentHits)/float64(total))
	}
	lr.set("memo.misses", float64(st.SegmentMisses))
	lr.set("memo.coalesced", float64(st.SegmentCoalesced))
	lr.set("memo.evictions", float64(st.SegmentEvictions))

	sm := meanSpans(lr.spans, s.router != nil)
	first := sm.node
	if s.router != nil {
		first = sm.front
		lr.set("cluster.router_self_us", sm.front-sm.hop)
		lr.set("cluster.hop_us", sm.hop-sm.node)
	}
	lr.set("api.client_us", sm.client-sm.clientRT)
	lr.set("http.loopback_us", sm.clientRT-first)
	lr.set("server.handler_us", sm.node)
	return sm
}
