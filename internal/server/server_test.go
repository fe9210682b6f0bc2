package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/exp"
	"burstlink/internal/par"
	"burstlink/internal/units"
)

// testRequest is the canonical request most tests reuse.
func testRequest() api.SessionRequest {
	return api.SessionRequest{
		Scheme:     "burstlink",
		Resolution: "FHD",
		Refresh:    60,
		FPS:        30,
		Seconds:    5,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns status, headers, and body.
func post(t *testing.T, url string, v any) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestSessionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, hdr, body := post(t, ts.URL+"/v1/session", testRequest())
	if status != 200 {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if got := hdr.Get(api.CacheHeader); got != string(api.CacheMiss) {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	var res api.SessionResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "burstlink" || res.Frames != 150 {
		t.Fatalf("unexpected response %+v", res)
	}
	if res.AvgPower <= 0 || res.Energy <= 0 || res.BatteryLife <= 0 {
		t.Fatalf("non-positive power figures: %+v", res)
	}

	// Identical request → byte-identical cached body.
	status2, hdr2, body2 := post(t, ts.URL+"/v1/session", testRequest())
	if status2 != 200 || hdr2.Get(api.CacheHeader) != string(api.CacheHit) {
		t.Fatalf("second request: status %d, X-Cache %q", status2, hdr2.Get(api.CacheHeader))
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cached body differs:\n%s\n%s", body, body2)
	}
}

func TestSessionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		mut  func(*api.SessionRequest)
	}{
		{"unknown scheme", func(r *api.SessionRequest) { r.Scheme = "warp-drive" }},
		{"bad resolution", func(r *api.SessionRequest) { r.Resolution = "huge" }},
		{"fps above refresh", func(r *api.SessionRequest) { r.FPS = 144 }},
		{"non-divisor fps", func(r *api.SessionRequest) { r.FPS = 25 }},
		{"zero seconds", func(r *api.SessionRequest) { r.Seconds = 0 }},
		{"excessive seconds", func(r *api.SessionRequest) { r.Seconds = api.MaxSeconds + 1 }},
		{"vr without source", func(r *api.SessionRequest) { r.VR = true }},
	}
	for _, c := range cases {
		req := testRequest()
		c.mut(&req)
		status, _, body := post(t, ts.URL+"/v1/session", req)
		if status != 400 {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, status, body)
			continue
		}
		var env struct {
			Error *api.Error `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code == "" {
			t.Errorf("%s: unstructured error body %s", c.name, body)
		}
	}

	// Unknown JSON fields, trailing garbage, and non-objects are rejected.
	for _, raw := range []string{
		`{"scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":5,"bogus":1}`,
		`{"scheme":"burstlink","resolution":"FHD","refresh_hz":60,"fps":30,"seconds":5}{"again":true}`,
		`[1,2,3]`,
		`not json at all`,
	} {
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("raw %q: status %d, want 400", raw, resp.StatusCode)
		}
	}
}

func TestSweepEndpointAndCellReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sweep := api.SweepRequest{
		Schemes:     []string{"conventional", "burstlink"},
		Resolutions: []string{"FHD", "QHD"},
		FPS:         []units.FPS{30, 60},
		Refresh:     60,
		Seconds:     5,
	}
	status, hdr, body := post(t, ts.URL+"/v1/sweep", sweep)
	if status != 200 {
		t.Fatalf("sweep status = %d, body %s", status, body)
	}
	if got := hdr.Get(api.CacheHeader); got != string(api.CacheMiss) {
		t.Fatalf("first sweep X-Cache = %q", got)
	}
	var res api.SweepResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	// Cross-product order: schemes → resolutions → fps.
	if res.Cells[0].Scheme != "conventional" || res.Cells[0].Resolution != "FHD" || res.Cells[0].FPS != 30 {
		t.Fatalf("cell order wrong: %+v", res.Cells[0])
	}
	if res.Cells[7].Scheme != "burstlink" || res.Cells[7].Resolution != "QHD" || res.Cells[7].FPS != 60 {
		t.Fatalf("cell order wrong: %+v", res.Cells[7])
	}

	// A session request matching one sweep cell is served from the cell
	// cache: sweeps and sessions share the scenario-keyed store.
	req := api.SessionRequest{Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 5}
	sStatus, sHdr, sBody := post(t, ts.URL+"/v1/session", req)
	if sStatus != 200 || sHdr.Get(api.CacheHeader) != string(api.CacheHit) {
		t.Fatalf("session after sweep: status %d, X-Cache %q", sStatus, sHdr.Get(api.CacheHeader))
	}
	if !bytes.Equal([]byte(res.Cells[7].Result), sBody) {
		t.Fatalf("cell body and session body differ:\n%s\n%s", res.Cells[7].Result, sBody)
	}
	if st := s.Stats(); st.CacheHits == 0 {
		t.Fatalf("stats should record the cell reuse: %+v", st)
	}

	// Identical sweep → the whole response comes back from cache.
	status2, hdr2, body2 := post(t, ts.URL+"/v1/sweep", sweep)
	if status2 != 200 || hdr2.Get(api.CacheHeader) != string(api.CacheHit) {
		t.Fatalf("repeat sweep: status %d, X-Cache %q", status2, hdr2.Get(api.CacheHeader))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("repeat sweep body differs")
	}

	// Sweep validation failures surface as 400s.
	bad := sweep
	bad.Resolutions = nil
	if status, _, _ := post(t, ts.URL+"/v1/sweep", bad); status != 400 {
		t.Fatalf("empty resolutions: status %d, want 400", status)
	}
}

func TestExpEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/exp")
	if status != 200 {
		t.Fatalf("exp list status = %d", status)
	}
	var list api.ExperimentList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) != len(exp.IDs()) {
		t.Fatalf("listed %d experiments, want %d", len(list.Experiments), len(exp.IDs()))
	}

	status, body = get(t, ts.URL+"/v1/exp/fig9")
	if status != 200 {
		t.Fatalf("fig9 status = %d, body %s", status, body)
	}
	var tab struct {
		ID   string              `json:"id"`
		Rows []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &tab); err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig9" || len(tab.Rows) == 0 {
		t.Fatalf("fig9 table malformed: %s", body)
	}

	// Second fetch of the same table is cached byte-identically.
	status2, body2 := get(t, ts.URL+"/v1/exp/fig9")
	if status2 != 200 || !bytes.Equal(body, body2) {
		t.Fatal("cached experiment table differs")
	}

	status, _ = get(t, ts.URL+"/v1/exp/nope")
	if status != 404 {
		t.Fatalf("unknown experiment status = %d, want 404", status)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/healthz")
	if status != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", status, body)
	}
	post(t, ts.URL+"/v1/session", testRequest())
	post(t, ts.URL+"/v1/session", testRequest())
	status, body = get(t, ts.URL+"/v1/stats")
	if status != 200 {
		t.Fatalf("stats status = %d", status)
	}
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 2 || st.CacheMisses < 1 || st.CacheHits < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRatio <= 0 || st.HitRatio >= 1 {
		t.Fatalf("hit ratio = %v", st.HitRatio)
	}

	// A failed computation is never cached, and each one counts as a
	// miss: an infeasible scenario sent twice computes twice.
	infeasible := api.SessionRequest{Scheme: "burstlink", Resolution: "8192x8192", Refresh: 480, FPS: 480, Seconds: 1, BPP: 64}
	for i := 0; i < 2; i++ {
		if status, _, body := post(t, ts.URL+"/v1/session", infeasible); status != http.StatusUnprocessableEntity {
			t.Fatalf("infeasible request %d: status %d, body %s", i, status, body)
		}
	}
	status, body = get(t, ts.URL+"/v1/stats")
	var after api.Stats
	if err := json.Unmarshal(body, &after); status != 200 || err != nil {
		t.Fatalf("stats status %d, err %v", status, err)
	}
	if after.CacheMisses != st.CacheMisses+2 || after.CacheHits != st.CacheHits {
		t.Fatalf("two failed computations moved misses %d → %d, hits %d → %d; want misses +2",
			st.CacheMisses, after.CacheMisses, st.CacheHits, after.CacheHits)
	}
}

// TestCoalescingHTTP drives coalescing end to end: a fresh server
// misses, so concurrent identical requests that arrive while the leader
// computes attach to its in-flight execution. Requests arriving after
// it finishes hit the cache, so the leader's run is the only window:
// the longest session keeps it open for tens of milliseconds.
func TestCoalescingHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 16})
	req := testRequest()
	req.Seconds = api.MaxSeconds
	defer par.SetWorkers(par.SetWorkers(8))
	statuses := par.Map(8, func(i int) string {
		_, hdr, _ := post(t, ts.URL+"/v1/session", req)
		return hdr.Get(api.CacheHeader)
	})
	coalesced := 0
	for _, st := range statuses {
		if st == string(api.CacheCoalesced) {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Skip("requests never overlapped on this machine; coalescing not exercised")
	}
	if got := s.Stats().Coalesced; got == 0 {
		t.Fatalf("stats.Coalesced = %d with %d coalesced responses", got, coalesced)
	}
}

// TestBackpressure occupies the single execution slot directly, fills
// the one queue position, and requires the next request to bounce with
// 429 + Retry-After — deterministically, no timing assumptions.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	if !s.gate.TryAcquire() {
		t.Fatal("fresh gate has no slot")
	}
	released := false
	defer func() {
		if !released {
			s.gate.Release()
		}
	}()

	// Request A queues behind the held slot.
	aDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/session", testRequest())
		aDone <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request A never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Request B finds slot and queue both full → 429 + Retry-After.
	b, err := json.Marshal(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("stats.Rejected not incremented")
	}

	// Free the slot: the queued request completes normally.
	s.gate.Release()
	released = true
	if status := <-aDone; status != 200 {
		t.Fatalf("queued request finished with %d, want 200", status)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := New(Config{DrainTimeout: 5 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := s.Start(l)
	base := "http://" + l.Addr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("server not serving: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// After the drain the listener is closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after drain")
	}
}

func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	status, _, body := post(t, ts.URL+"/v1/session", testRequest())
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", status, body)
	}
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != "timeout" {
		t.Fatalf("timeout error body = %s", body)
	}
}

func TestClientAgainstServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := api.NewClient(ts.URL)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	res, status, err := c.Session(ctx, testRequest())
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if status != api.CacheMiss || res.Frames != 150 {
		t.Fatalf("session = %+v, status %q", res, status)
	}
	ids, err := c.Experiments(ctx)
	if err != nil || len(ids) == 0 {
		t.Fatalf("experiments: %v (%d)", err, len(ids))
	}
	raw, err := c.Experiment(ctx, ids[0])
	if err != nil || len(raw) == 0 {
		t.Fatalf("experiment %s: %v", ids[0], err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.Requests == 0 {
		t.Fatalf("stats: %v %+v", err, st)
	}
	// Typed errors surface with status and code intact.
	bad := testRequest()
	bad.Scheme = "nope"
	_, _, err = c.Session(ctx, bad)
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Status != 400 || aerr.Code != "bad_scheme" {
		t.Fatalf("bad scheme error = %v", err)
	}
}
