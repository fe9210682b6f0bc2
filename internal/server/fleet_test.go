package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"burstlink/internal/api"
	"burstlink/internal/par"
)

// testFleetRequest is a small population with short sessions so every
// fleet test stays cheap.
func testFleetRequest() api.FleetRequest {
	return api.FleetRequest{
		Size: 30,
		Seed: 7,
		Classes: []api.FleetClass{
			{Name: "a", Weight: 2, BatteryMWh: 15000, Resolution: "FHD", Refresh: 60},
			{Name: "b", Weight: 1, BatteryMWh: 30000, Resolution: "QHD", Refresh: 60, PerfScale: 1.2},
		},
		Contents: []api.FleetContent{
			{Name: "x", Weight: 2, FPS: 30, Seconds: 2},
			{Name: "y", Weight: 1, FPS: 60, Seconds: 3},
		},
	}
}

func TestFleetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, hdr, body := post(t, ts.URL+"/v1/fleet", testFleetRequest())
	if status != 200 {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if got := hdr.Get(api.CacheHeader); got != string(api.CacheMiss) {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	var res api.FleetResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Devices != 30 || res.Unique <= 0 || res.Unique >= 30 {
		t.Fatalf("devices/unique = %d/%d", res.Devices, res.Unique)
	}
	if res.Scheme != "burstlink" || len(res.Metrics) == 0 {
		t.Fatalf("response = %+v", res)
	}
	found := false
	for _, m := range res.Metrics {
		if m.Name == "impact_pct" {
			found = true
			if m.Count != 30 || m.Mean <= 0 || m.Hist == nil {
				t.Fatalf("impact metric = %+v", m)
			}
		}
	}
	if !found {
		t.Fatal("no impact_pct metric in response")
	}

	// Identical request → byte-identical cached body.
	status2, hdr2, body2 := post(t, ts.URL+"/v1/fleet", testFleetRequest())
	if status2 != 200 || hdr2.Get(api.CacheHeader) != string(api.CacheHit) {
		t.Fatalf("second request: status %d, X-Cache %q", status2, hdr2.Get(api.CacheHeader))
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cached body differs:\n%s\n%s", body, body2)
	}
}

// TestFleetWireDeterminism pins the acceptance contract at the wire:
// byte-identical bodies across worker counts, each from a fresh server.
func TestFleetWireDeterminism(t *testing.T) {
	run := func(cfg Config, workers int) []byte {
		defer par.SetWorkers(par.SetWorkers(workers))
		_, ts := newTestServer(t, cfg)
		status, _, body := post(t, ts.URL+"/v1/fleet", testFleetRequest())
		if status != 200 {
			t.Fatalf("status = %d, body %s", status, body)
		}
		return body
	}
	want := run(Config{}, 1)
	arms := []struct {
		name    string
		cfg     Config
		workers int
	}{
		{"parallel", Config{}, 4},
	}
	for _, arm := range arms {
		if got := run(arm.cfg, arm.workers); !bytes.Equal(got, want) {
			t.Errorf("%s: body differs:\n%s\nvs\n%s", arm.name, got, want)
		}
	}
}

func TestFleetStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Plain run for the reference aggregate.
	_, _, plain := post(t, ts.URL+"/v1/fleet", testFleetRequest())
	var want api.FleetResponse
	if err := json.Unmarshal(plain, &want); err != nil {
		t.Fatal(err)
	}

	req := testFleetRequest()
	req.Stream = true
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events, progress int
	var last api.FleetEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.FleetEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events++
		if ev.Progress != nil {
			progress++
			if ev.Progress.Total != req.Size || ev.Progress.Done > ev.Progress.Total {
				t.Fatalf("progress = %+v", ev.Progress)
			}
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatal("stream carried no progress events")
	}
	if last.Result == nil {
		t.Fatal("stream did not end with a result")
	}
	got, err := json.Marshal(*last.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("streamed result differs from plain result:\n%s\nvs\n%s", got, plain)
	}
	if want.Devices != last.Result.Devices {
		t.Fatalf("streamed devices = %d, want %d", last.Result.Devices, want.Devices)
	}
}

func TestFleetValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		mut  func(*api.FleetRequest)
	}{
		{"zero size", func(r *api.FleetRequest) { r.Size = 0 }},
		{"bad scheme", func(r *api.FleetRequest) { r.Scheme = "warp-drive" }},
		{"bad resolution", func(r *api.FleetRequest) { r.Classes[0].Resolution = "galactic" }},
		{"fps mismatch", func(r *api.FleetRequest) { r.Contents[0].FPS = 45 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := testFleetRequest()
			tc.mut(&req)
			status, _, body := post(t, ts.URL+"/v1/fleet", req)
			if status != 400 {
				t.Fatalf("status = %d, body %s", status, body)
			}
			var env struct {
				Error *api.Error `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("not a structured error: %s", body)
			}
		})
	}
}

func TestFleetClientAgainstServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := api.NewClient(ts.URL)
	res, status, err := c.Fleet(t.Context(), testFleetRequest())
	if err != nil {
		t.Fatal(err)
	}
	if status != api.CacheMiss || res.Devices != 30 {
		t.Fatalf("status %q, devices %d", status, res.Devices)
	}
	var seen int
	sres, err := c.FleetStream(t.Context(), testFleetRequest(), func(p api.FleetProgress) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no progress callbacks")
	}
	if sres.Devices != res.Devices || sres.Unique != res.Unique {
		t.Fatalf("streamed %+v vs plain %+v", sres, res)
	}
}
