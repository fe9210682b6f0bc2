// Package cluster_test holds the cluster integration tests — the 2-node
// wire-determinism pin and routed load. They drive real internal/server
// instances behind the router from outside both packages, the way blkd
// wires them.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/cluster"
	"burstlink/internal/server"
	"burstlink/internal/units"
)

// wireRequest is one step of a replayed wire sequence.
type wireRequest struct {
	method string
	path   string
	body   []byte
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replay issues one request and returns status, body, and the routed
// node (X-Cluster-Node, empty when hitting a backend directly).
func replay(t *testing.T, base string, r wireRequest) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header.Get(cluster.NodeHeader)
}

func TestTwoNodeWireDeterminism(t *testing.T) {
	seq := []wireRequest{
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "conventional", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 3})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burst-only", Resolution: "4K", Refresh: 60, FPS: 30, Seconds: 2})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3})}, // duplicate of #1
		// Re-spelled duplicate of #2: BPP and PrebufferFrames are written
		// out instead of defaulted, so the wire bytes differ but the
		// canonical key — and therefore the routed node — must match.
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 3, BPP: 24, PrebufferFrames: 60})},
		{"POST", "/v1/sweep", marshal(t, api.SweepRequest{
			Schemes: []string{"conventional", "burstlink"}, Resolutions: []string{"FHD"},
			FPS: []units.FPS{30}, Refresh: 60, Seconds: 3,
		})},
		{"POST", "/v1/fleet", marshal(t, api.FleetRequest{Size: 40, Seed: 7})},
		{"GET", "/v1/exp", nil},
		{"GET", "/v1/exp/fig9", nil},
	}

	// Baseline: one plain node, the sequence in order.
	single := httptest.NewServer(server.New(server.Config{NodeID: "solo"}).Handler())
	defer single.Close()
	baseline := make([][]byte, len(seq))
	for i, r := range seq {
		status, body, _ := replay(t, single.URL, r)
		if status != 200 {
			t.Fatalf("baseline request %d (%s %s): status %d: %s", i, r.method, r.path, status, body)
		}
		baseline[i] = body
	}

	// Cluster: two nodes behind a router.
	nodeA := httptest.NewServer(server.New(server.Config{NodeID: "a"}).Handler())
	defer nodeA.Close()
	nodeB := httptest.NewServer(server.New(server.Config{NodeID: "b"}).Handler())
	defer nodeB.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{nodeA.URL, nodeB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	routed := make([]string, len(seq))
	for i, r := range seq {
		status, body, node := replay(t, front.URL, r)
		if status != 200 {
			t.Fatalf("routed request %d (%s %s): status %d: %s", i, r.method, r.path, status, body)
		}
		if node == "" {
			t.Fatalf("routed request %d: missing %s header", i, cluster.NodeHeader)
		}
		routed[i] = node
		if !bytes.Equal(body, baseline[i]) {
			t.Errorf("request %d (%s %s): cluster bytes diverge from the single node\nsingle: %s\ncluster: %s",
				i, r.method, r.path, baseline[i], body)
		}
	}

	// Ownership is a function of the canonical key: the exact duplicate
	// and the re-spelled duplicate must land on the very node their
	// originals did.
	if routed[4] != routed[1] {
		t.Errorf("exact duplicate routed to %q, original to %q", routed[4], routed[1])
	}
	if routed[5] != routed[2] {
		t.Errorf("re-spelled duplicate routed to %q, original to %q", routed[5], routed[2])
	}

	// Each routed scenario computed on exactly one node: the distinct
	// top-level keys (four sessions, the sweep, the fleet, one
	// experiment) miss once each. The sweep additionally executes its
	// cells through its owner's result cache; a cell whose matching
	// session landed on the *other* node recomputes there, so the exact
	// expectation depends on ring placement — derived below, not guessed.
	ring := rt.Ring()
	sweepReq := api.SweepRequest{
		Schemes: []string{"conventional", "burstlink"}, Resolutions: []string{"FHD"},
		FPS: []units.FPS{30}, Refresh: 60, Seconds: 3,
	}
	sweepReq.Normalize()
	sweepOwner := ring.Owner(sweepReq.CacheKey())
	displaced := 0
	for _, scheme := range sweepReq.Schemes {
		cell := api.SessionRequest{Scheme: scheme, Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3}
		cell.Normalize()
		if ring.Owner(cell.CacheKey()) != sweepOwner {
			displaced++
		}
	}

	statsA := nodeStats(t, nodeA.URL)
	statsB := nodeStats(t, nodeB.URL)
	misses := statsA.CacheMisses + statsB.CacheMisses
	if want := uint64(7 + displaced); misses != want {
		t.Errorf("summed node misses = %d, want %d (7 distinct top-level keys + %d displaced sweep cells)",
			misses, want, displaced)
	}
	// Hits: the exact duplicate, the re-spelled duplicate, and every
	// sweep cell colocated with its session.
	hits := statsA.CacheHits + statsB.CacheHits
	if want := uint64(2 + (2 - displaced)); hits != want {
		t.Errorf("summed node hits = %d, want %d", hits, want)
	}
}

// TestRunLoadThroughRouter drives the closed-loop load generator
// through a 2-node router and pins single ownership under concurrent
// load: every scheduled request is answered and forwarded once, and
// each distinct canonical key is computed exactly once across the
// cluster.
func TestRunLoadThroughRouter(t *testing.T) {
	nodeA := httptest.NewServer(server.New(server.Config{NodeID: "a"}).Handler())
	defer nodeA.Close()
	nodeB := httptest.NewServer(server.New(server.Config{NodeID: "b"}).Handler())
	defer nodeB.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{nodeA.URL, nodeB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	opts := api.LoadOptions{Concurrency: 8, Requests: 200, DupRate: 0.5, Seed: 1, Now: time.Now}
	client := api.NewClient(front.URL)
	rep, err := api.RunLoad(context.Background(), client, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed (first: %s)", rep.Errors, rep.Requests, rep.FirstError)
	}
	if got := rep.Hits + rep.Coalesced + rep.Misses; got != opts.Requests {
		t.Errorf("hits+coalesced+misses = %d, want %d", got, opts.Requests)
	}

	cs, err := client.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var forwarded, misses uint64
	for _, f := range cs.Forwarded {
		forwarded += f.Requests
	}
	for _, st := range cs.Nodes {
		misses += st.CacheMisses
	}
	if forwarded != uint64(opts.Requests) {
		t.Errorf("router forwarded %d requests, want %d", forwarded, opts.Requests)
	}
	distinct := make(map[string]bool)
	for _, req := range api.Schedule(opts) {
		req.Normalize()
		distinct[req.CacheKey()] = true
	}
	if misses != uint64(len(distinct)) {
		t.Errorf("summed node misses = %d, want %d (one per distinct scheduled key)", misses, len(distinct))
	}
}

// TestRouterReusesBackendConns pins the default client's idle pool: a
// router forwarding 16 concurrent workers' requests to one node must
// reuse its connections, not dial one per request past the second as
// net/http's default pool of 2 per host does (over 300 for this load).
func TestRouterReusesBackendConns(t *testing.T) {
	var conns atomic.Int64
	node := httptest.NewUnstartedServer(server.New(server.Config{NodeID: "a"}).Handler())
	node.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	node.Start()
	defer node.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{node.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	opts := api.LoadOptions{Concurrency: 16, Requests: 16 * 50, DupRate: 0.5, Seed: 1, Now: time.Now}
	rep, err := api.RunLoad(context.Background(), api.NewClient(front.URL), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed (first: %s)", rep.Errors, rep.Requests, rep.FirstError)
	}
	if n := conns.Load(); n > 32 {
		t.Errorf("router opened %d connections to its node for %d requests from %d workers, want at most 32", n, opts.Requests, opts.Concurrency)
	}
}

// TestRouterClientGone pins who gets blamed when a forward fails. A
// request whose client is already gone gets the node's own answer
// through the router — its status and an empty body — not a 502 naming
// a healthy backend; a dead backend still gets 502 backend_unreachable.
func TestRouterClientGone(t *testing.T) {
	body := marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 2})
	serve := func(h http.Handler, ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/session", bytes.NewReader(body)).WithContext(ctx))
		return rec
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	node := server.New(server.Config{NodeID: "a"})
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	direct := serve(node.Handler(), canceled)
	if direct.Code != http.StatusServiceUnavailable || direct.Body.Len() != 0 {
		t.Fatalf("node answered a canceled request with %d %q, want a bare 503", direct.Code, direct.Body)
	}
	if routed := serve(rt.Handler(), canceled); routed.Code != direct.Code || routed.Body.Len() != 0 {
		t.Errorf("router answered a canceled request with %d %q, want the node's %d and an empty body",
			routed.Code, routed.Body, direct.Code)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()
	deadRt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(deadRt.Handler(), context.Background())
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadGateway ||
		env.Error == nil || env.Error.Code != "backend_unreachable" {
		t.Errorf("dead backend: %d %q, want 502 backend_unreachable", rec.Code, rec.Body)
	}
}

// nodeStats fetches one backend's /v1/stats document.
func nodeStats(t *testing.T, base string) api.Stats {
	t.Helper()
	st, err := api.NewClient(base).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}
