// Command blkd is the BurstLink simulation daemon: the repository's
// engines served as versioned JSON endpoints with a scenario-keyed
// result cache, request coalescing, and bounded concurrency with
// backpressure. See internal/server for the service layer and
// internal/api for the wire contract.
//
// Usage:
//
//	blkd [-addr :8080] [-cache 4096] [-segcache 8192] [-concurrency N]
//	     [-queue 64] [-timeout 30s] [-drain 10s] [-node NAME]
//	blkd [-addr :8080] [-drain 10s] [-node NAME]
//	     -route http://node1:8080,http://node2:8080
//
// -cache and -segcache size the result and segment caches; both are
// always on, so each needs at least one entry.
//
// Endpoints:
//
//	POST /v1/session    run one streaming session under a scheme
//	POST /v1/sweep      fan a scheme × resolution × fps sweep out
//	POST /v1/fleet      run a device-population simulation
//	GET  /v1/exp        list experiment IDs
//	GET  /v1/exp/{id}   run one §6 experiment table
//	GET  /v1/stats      service counters (cache, rejections, peaks)
//	GET  /v1/health     node identity and load/fill document
//	GET  /healthz       liveness probe
//
// With -route, blkd runs as a thin cluster router instead of a compute
// node: each request is canonicalized to its result-cache key and
// forwarded to the consistent-hash owner among the listed backends
// (cluster.DefaultVNodes virtual nodes each), so every scenario's cache
// entry lives on exactly one node. A node starts with empty caches and
// refills them from traffic: every body is a pure function of its key,
// so a cold node's first answers cost compute, never correctness.
//
// blkd drains gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests finish (bounded by -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"burstlink/internal/cluster"
	"burstlink/internal/server"
)

func main() {
	fs := flag.NewFlagSet("blkd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheN := fs.Int("cache", 4096, "scenario result cache entries (at least 1)")
	segN := fs.Int("segcache", 8192, "delta-simulation segment cache entries (at least 1)")
	conc := fs.Int("concurrency", 0, "max concurrent model executions (0 = 2×GOMAXPROCS)")
	queue := fs.Int("queue", 64, "max requests queued for an execution slot before 429")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request execution deadline")
	drain := fs.Duration("drain", 10*time.Second, "graceful drain bound on shutdown")
	node := fs.String("node", "", "node name reported in /v1/health and /v1/stats (default blkd)")
	route := fs.String("route", "", "run as a cluster router over these comma-separated backend URLs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if *cacheN < 1 || *segN < 1 {
		fmt.Fprintf(os.Stderr, "blkd: -cache and -segcache must be at least 1 (got %d, %d)\n", *cacheN, *segN)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var h http.Handler
	var banner string
	if *route != "" {
		backends := splitMembers(*route)
		rt, err := cluster.NewRouter(cluster.RouterConfig{Node: *node, Backends: backends})
		if err != nil {
			fail(err)
		}
		h = rt.Handler()
		banner = fmt.Sprintf("blkd routing on %s over %d backends", *addr, len(backends))
	} else {
		h = server.New(server.Config{
			NodeID:              *node,
			MaxConcurrent:       *conc,
			QueueDepth:          *queue,
			CacheEntries:        *cacheN,
			SegmentCacheEntries: *segN,
			RequestTimeout:      *timeout,
		}).Handler()
		banner = fmt.Sprintf("blkd listening on %s (cache=%d, segcache=%d, queue=%d, timeout=%v)", *addr, *cacheN, *segN, *queue, *timeout)
	}

	// Both modes share one serve path: listen, serve, drain.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	log.Print(banner)
	if err := server.ServeHandler(ctx, l, h, *drain); err != nil {
		fail(err)
	}
	log.Printf("blkd drained and stopped")
}

// fail reports an operational error and exits 1; usage errors exit 2.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "blkd:", err)
	os.Exit(1)
}

// splitMembers parses -route's comma-separated membership list
// ("url1,url2"), trimming whitespace and dropping empty items.
func splitMembers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
