package server

// The determinism invariant, extended to the wire. Two independent blkd
// instances given the same request sequence — in different orders and
// under different interleavings — must produce byte-identical response
// bodies per request, and a body served from the cache must match one
// computed cold. This is the property that makes the scenario cache
// sound: a cached body is indistinguishable from a recomputed one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"burstlink/internal/api"
	"burstlink/internal/par"
	"burstlink/internal/units"
)

// wireRequest is one step of the replayed sequence.
type wireRequest struct {
	method string
	path   string
	body   []byte
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// determinismSequence builds the request mix: sessions across schemes and
// resolutions (with exact duplicates, so the cache actually engages), a
// VR session, an overlapping sweep, and experiment fetches. Two pairs
// close it whose members must not share a cache entry: fleets whose
// class lists differ only in how a name could be read, and sweeps that
// spell one resolution two ways.
func determinismSequence(t *testing.T) []wireRequest {
	t.Helper()
	var seq []wireRequest
	session := func(scheme, res string, fps units.FPS, seconds int) {
		seq = append(seq, wireRequest{"POST", "/v1/session", mustJSON(t, api.SessionRequest{
			Scheme: scheme, Resolution: res, Refresh: 60, FPS: fps, Seconds: seconds,
		})})
	}
	session("conventional", "FHD", 30, 3)
	session("burstlink", "FHD", 30, 3)
	session("burstlink", "QHD", 60, 3)
	session("burst-only", "4K", 30, 2)
	session("bypass-only", "FHD", 60, 2)
	session("burstlink", "FHD", 30, 3)    // duplicate of #2
	session("conventional", "FHD", 30, 3) // duplicate of #1
	seq = append(seq, wireRequest{"POST", "/v1/session", mustJSON(t, api.SessionRequest{
		Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 30, Seconds: 2,
		VR: true, VRSource: "4K", MotionFactor: 1.5,
	})})
	// The sweep overlaps the sessions above cell for cell.
	seq = append(seq, wireRequest{"POST", "/v1/sweep", mustJSON(t, api.SweepRequest{
		Schemes:     []string{"conventional", "burstlink"},
		Resolutions: []string{"FHD", "QHD"},
		FPS:         []units.FPS{30},
		Refresh:     60,
		Seconds:     3,
	})})
	seq = append(seq, wireRequest{"GET", "/v1/exp", nil})
	seq = append(seq, wireRequest{"GET", "/v1/exp/fig9", nil})
	seq = append(seq, wireRequest{"GET", "/v1/exp/fig9", nil}) // duplicate

	// #12 and #13: two classes, then one class whose name spells out
	// the first class and the second's name, with the second's fields.
	phone := api.FleetClass{Name: "phone", Weight: 5, BatteryMWh: 17000, Resolution: "FHD", Refresh: 60, PerfScale: 0.8}
	tablet := api.FleetClass{Name: "tablet", Weight: 3, BatteryMWh: 38200, Resolution: "QHD", Refresh: 60, PerfScale: 1}
	merged := tablet
	merged.Name = "phone,w=5,bat=17000,res=1920x1080,hz=60,perf=0.8|class=tablet"
	contents := []api.FleetContent{
		{Name: "x", Weight: 2, FPS: 30, Seconds: 2},
		{Name: "y", Weight: 1, FPS: 60, Seconds: 2},
	}
	for _, classes := range [][]api.FleetClass{{phone, tablet}, {merged}} {
		seq = append(seq, wireRequest{"POST", "/v1/fleet", mustJSON(t, api.FleetRequest{
			Size: 40, Seed: 5, Classes: classes, Contents: contents,
		})})
	}
	// #14 and #15: the cells echo the resolution as spelled.
	for _, res := range []string{"FHD", "1920x1080"} {
		seq = append(seq, wireRequest{"POST", "/v1/sweep", mustJSON(t, api.SweepRequest{
			Schemes:     []string{"burstlink"},
			Resolutions: []string{res},
			FPS:         []units.FPS{30},
			Refresh:     60,
			Seconds:     3,
		})})
	}
	return seq
}

// replay issues one request and returns status + body.
func replay(t *testing.T, base string, r wireRequest) (int, []byte) {
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
	return resp.StatusCode, buf.Bytes()
}

func TestWireDeterminism(t *testing.T) {
	seq := determinismSequence(t)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"cache-on-delta-on", Config{}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			// Instance A: the sequence in order, serially.
			tsA := httptest.NewServer(New(c.cfg).Handler())
			defer tsA.Close()
			bodiesA := make([][]byte, len(seq))
			for i, r := range seq {
				status, body := replay(t, tsA.URL, r)
				if status != 200 {
					t.Fatalf("A request %d (%s %s): status %d: %s", i, r.method, r.path, status, body)
				}
				bodiesA[i] = body
			}

			// Instance B: the same sequence reversed AND issued
			// concurrently — a maximally different interleaving.
			tsB := httptest.NewServer(New(c.cfg).Handler())
			defer tsB.Close()
			bodiesB := make([][]byte, len(seq))
			defer par.SetWorkers(par.SetWorkers(len(seq)))
			par.ForEach(len(seq), func(i int) {
				j := len(seq) - 1 - i
				status, body := replay(t, tsB.URL, seq[j])
				if status != 200 {
					t.Errorf("B request %d: status %d: %s", j, status, body)
					return
				}
				bodiesB[j] = body
			})

			for i := range seq {
				if !bytes.Equal(bodiesA[i], bodiesB[i]) {
					t.Errorf("request %d (%s %s): bodies diverge across instances\nA: %s\nB: %s",
						i, seq[i].method, seq[i].path, bodiesA[i], bodiesB[i])
				}
			}

			// Duplicates within one instance are byte-identical too
			// (on instance A the second copy came from the cache).
			for _, dup := range [][2]int{{1, 5}, {0, 6}, {10, 11}} {
				if !bytes.Equal(bodiesA[dup[0]], bodiesA[dup[1]]) {
					t.Errorf("A: duplicate requests %d and %d produced different bodies", dup[0], dup[1])
				}
			}
		})
	}
}

// TestCacheTransparency pins that the same sequence against one caching
// instance and against a fresh instance per request (every body computed
// cold) yields identical bodies: the cache is observable only through
// X-Cache and speed, never content.
func TestCacheTransparency(t *testing.T) {
	seq := determinismSequence(t)
	send := func(ts *httptest.Server, i int) []byte {
		status, body := replay(t, ts.URL, seq[i])
		if status != 200 {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		return body
	}
	cached := make([][]byte, len(seq))
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for i := range seq {
		cached[i] = send(ts, i)
	}
	for i := range seq {
		fresh := httptest.NewServer(New(Config{}).Handler())
		cold := send(fresh, i)
		fresh.Close()
		if !bytes.Equal(cached[i], cold) {
			t.Errorf("request %d (%s): cached and cold bodies differ", i, fmt.Sprintf("%s %s", seq[i].method, seq[i].path))
		}
	}
}

// TestDeltaTransparency pins the delta-simulation contract on the wire:
// whether a body's segments hit, miss, or were evicted, it is
// byte-identical for the same sequence. Delta simulation is observable
// only through /v1/stats and speed, never content. (That the period
// fold matches the full timeline expansion is pinned in session's
// engine_test.go.)
func TestDeltaTransparency(t *testing.T) {
	seq := determinismSequence(t)
	run := func(cfg Config) [][]byte {
		ts := httptest.NewServer(New(cfg).Handler())
		defer ts.Close()
		bodies := make([][]byte, len(seq))
		for i, r := range seq {
			status, body := replay(t, ts.URL, r)
			if status != 200 {
				t.Fatalf("request %d: status %d: %s", i, status, body)
			}
			bodies[i] = body
		}
		return bodies
	}
	arms := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		// Repeats miss the one-entry result cache and recompute over
		// warm segments.
		{"result-cache-1", Config{CacheEntries: 1}},
		// Segments evict between every step of a run.
		{"segment-cache-1", Config{SegmentCacheEntries: 1}},
	}
	ref := run(arms[0].cfg)
	for _, arm := range arms[1:] {
		got := run(arm.cfg)
		for i := range seq {
			if !bytes.Equal(ref[i], got[i]) {
				t.Errorf("request %d (%s %s): %s diverges from %s\nref: %s\ngot: %s",
					i, seq[i].method, seq[i].path, arm.name, arms[0].name, ref[i], got[i])
			}
		}
	}
}

// TestStatsExposeSegmentCounters: after a sweep-shaped run the /v1/stats
// document carries live segment-cache numbers.
func TestStatsExposeSegmentCounters(t *testing.T) {
	seq := determinismSequence(t)
	stats := func(cfg Config) api.Stats {
		ts := httptest.NewServer(New(cfg).Handler())
		defer ts.Close()
		for i, r := range seq {
			if status, body := replay(t, ts.URL, r); status != 200 {
				t.Fatalf("request %d: status %d: %s", i, status, body)
			}
		}
		_, body := replay(t, ts.URL, wireRequest{"GET", "/v1/stats", nil})
		var st api.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := stats(Config{})
	if st.SegmentMisses == 0 || st.SegmentHits == 0 {
		t.Fatalf("segment counters not live: %+v", st)
	}
	if st.SegmentHitRatio <= 0 || st.SegmentHitRatio >= 1 {
		t.Fatalf("segment hit ratio out of range: %v", st.SegmentHitRatio)
	}
}
