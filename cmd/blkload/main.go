// Command blkload is a closed-loop load generator for blkd: a fixed
// schedule of session requests — a configurable fraction of which are
// exact duplicates, the near-duplicate workload shape the scenario
// cache exploits — driven by N workers issuing back to back. It reports
// throughput, latency percentiles, and the cache hit ratio observed
// through the X-Cache header, which is what makes the service's "heavy
// traffic" posture measurable instead of aspirational.
//
// Usage:
//
//	blkload [-url http://127.0.0.1:8080] [-c 64] [-n 2000]
//	        [-dup 0.5] [-sweep] [-seed 1] [-json report.json]
//
// -url names one blkd node or a cluster router (`blkd -route`); the
// router forwards each request to the ring owner of its canonical key.
//
// -sweep switches the schedule to an axis-neighbor walk (each new
// configuration moves exactly one knob), the sweep-shaped workload the
// server's delta-simulation segment cache exploits. After the run,
// blkload samples GET /v1/stats and reports the server-side segment
// cache counters alongside the client-observed result cache ratios:
// one line for a node, or one per member, with the router's forwarded
// count, for a router.
//
// -fleet switches blkload from many session requests to one population
// request: POST /v1/fleet with -n devices and -seed as the population
// seed, streamed so progress renders live. The report becomes
// devices/sec plus the aggregate battery-impact percentiles, and the
// segment-cache counters show how much the fleet's devices shared.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"burstlink/internal/api"
)

func main() {
	fs := flag.NewFlagSet("blkload", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "blkd node or router base URL")
	c := fs.Int("c", 64, "closed-loop worker count")
	n := fs.Int("n", 2000, "total requests")
	dup := fs.Float64("dup", 0.5, "fraction of requests duplicating an earlier one [0,1)")
	sweep := fs.Bool("sweep", false, "axis-neighbor sweep schedule (one knob moves per new configuration)")
	fleetRun := fs.Bool("fleet", false, "drive one streamed /v1/fleet population run of -n devices instead of session load")
	seed := fs.Int64("seed", 1, "schedule seed")
	jsonOut := fs.String("json", "", "also write the report as JSON to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}

	// One idle connection per worker: with net/http's default of 2 per
	// host, every request past the second overlapping one would dial a
	// fresh connection.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = *c
	tr.MaxIdleConnsPerHost = *c
	client := api.NewClient(*url).WithHTTPClient(&http.Client{Transport: tr})
	if err := client.Health(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "blkload: %s is not healthy: %v\n", *url, err)
		os.Exit(1)
	}
	if *fleetRun {
		if err := runFleet(client, *n, uint64(*seed), *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "blkload:", err)
			os.Exit(1)
		}
		return
	}
	report, err := api.RunLoad(context.Background(), client, api.LoadOptions{
		Concurrency: *c,
		Requests:    *n,
		DupRate:     *dup,
		Sweep:       *sweep,
		Seed:        *seed,
		Now:         time.Now,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "blkload:", err)
		os.Exit(1)
	}

	printReport(os.Stdout, report)
	if err := printServerStats(context.Background(), os.Stdout, client); err != nil {
		fmt.Fprintln(os.Stderr, "blkload: stats:", err)
	}
	if report.Errors > 0 {
		fmt.Fprintf(os.Stderr, "blkload: %d/%d requests failed (first: %s)\n",
			report.Errors, report.Requests, report.FirstError)
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "blkload:", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "blkload:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if report.Errors > 0 {
		os.Exit(1)
	}
}

// fleetReport is the JSON form of a fleet run's client-side report.
type fleetReport struct {
	Devices       int               `json:"devices"`
	Unique        int               `json:"unique_configs"`
	Wall          time.Duration     `json:"wall_ns"`
	DevicesPerSec float64           `json:"devices_per_sec"`
	Response      api.FleetResponse `json:"response"`
}

// runFleet drives one streamed population run and reports devices/sec
// plus the aggregate distributions.
func runFleet(client *api.Client, size int, seed uint64, jsonOut string) error {
	req := api.FleetRequest{Size: size, Seed: seed}
	start := time.Now()
	res, err := client.FleetStream(context.Background(), req, func(p api.FleetProgress) {
		fmt.Fprintf(os.Stderr, "\rfleet       %d/%d devices", p.Done, p.Total)
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	rep := fleetReport{
		Devices:       res.Devices,
		Unique:        res.Unique,
		Wall:          wall,
		DevicesPerSec: float64(res.Devices) / wall.Seconds(),
		Response:      res,
	}
	fmt.Printf("fleet       %d devices (%d unique configs), scheme %s\n", res.Devices, res.Unique, res.Scheme)
	fmt.Printf("wall        %v\n", wall.Round(time.Millisecond))
	fmt.Printf("throughput  %.1f devices/s\n", rep.DevicesPerSec)
	for _, m := range res.Metrics {
		if m.Hist == nil {
			continue
		}
		fmt.Printf("%-11s mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f %s\n",
			m.Name, m.Mean, m.P50, m.P95, m.P99, m.Unit)
	}
	if err := printServerStats(context.Background(), os.Stdout, client); err != nil {
		fmt.Fprintln(os.Stderr, "blkload: stats:", err)
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(jsonOut, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// printReport renders the human-readable summary.
func printReport(w *os.File, r api.LoadReport) {
	fmt.Fprintf(w, "requests    %d (%d errors), %d workers, dup %.0f%%\n",
		r.Requests, r.Errors, r.Concurrency, r.DupRate*100)
	fmt.Fprintf(w, "wall        %v\n", r.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput  %.1f req/s\n", r.Throughput)
	fmt.Fprintf(w, "latency     p50 %v  p95 %v  p99 %v\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	fmt.Fprintf(w, "cache       %d hits, %d coalesced, %d misses (hit ratio %.2f)\n",
		r.Hits, r.Coalesced, r.Misses, r.HitRatio)
}

// printServerStats samples GET /v1/stats and renders the segment-cache
// counters: a node's own, or, behind a router, every member's with the
// requests the router forwarded to it.
func printServerStats(ctx context.Context, w io.Writer, client *api.Client) error {
	// A router's document names it; a node's decodes with Router empty.
	cs, err := client.ClusterStats(ctx)
	if err != nil {
		return err
	}
	if cs.Router == "" {
		st, err := client.Stats(ctx)
		if err != nil {
			return err
		}
		printSegmentStats(w, "", st)
		return nil
	}
	if len(cs.Forwarded) != len(cs.Nodes) {
		return fmt.Errorf("router %s: %d forwarded counts for %d nodes", cs.Router, len(cs.Forwarded), len(cs.Nodes))
	}
	for i, st := range cs.Nodes {
		f := cs.Forwarded[i]
		printSegmentStats(w, fmt.Sprintf("%s (%d forwarded): ", f.Node, f.Requests), st)
	}
	return nil
}

// printSegmentStats renders one node's delta-simulation segment cache
// counters from /v1/stats, after label.
func printSegmentStats(w io.Writer, label string, s api.Stats) {
	fmt.Fprintf(w, "segments    %s%d hits, %d misses, %d coalesced, %d evictions (hit ratio %.2f, %d entries)\n",
		label, s.SegmentHits, s.SegmentMisses, s.SegmentCoalesced, s.SegmentEvictions, s.SegmentHitRatio, s.SegmentEntries)
}
