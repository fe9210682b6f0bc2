// Cluster example: the determinism dividend at fleet scale. Every blkd
// response is a pure function of its canonical request key, so a
// cluster needs no replication and no cache coherence — a consistent-
// hash ring assigns each scenario key to exactly one node, and that
// node's cache entry is as authoritative as any single server's.
//
// The example runs two in-process blkd nodes behind a routing front,
// replays a duplicate-heavy scenario mix through the router, and shows:
//
//   - byte-identity: every routed response matches a standalone
//     single-node blkd byte for byte (the router adds nothing and
//     loses nothing);
//   - single ownership: summed cache misses across the two nodes equal
//     the number of distinct scenarios — no key computed twice.
//
// It exits 1 if a routed body diverges or a scenario is computed twice.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"burstlink/internal/api"
	"burstlink/internal/cluster"
	"burstlink/internal/server"
)

// distinct is the number of distinct scenarios in the mix.
const distinct = 4

// scenarios is the replayed mix: four distinct configurations, two of
// them repeated (the duplicate-heavy shape the scenario cache exploits).
func scenarios() []api.SessionRequest {
	distinct := []api.SessionRequest{
		{Scheme: "conventional", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3},
		{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3},
		{Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 2},
		{Scheme: "burst-only", Resolution: "4K", Refresh: 60, FPS: 30, Seconds: 2},
	}
	return append(distinct, distinct[1], distinct[2])
}

// post sends one session request and returns the raw response bytes
// plus the routed node (empty when talking to a backend directly).
func post(base string, req api.SessionRequest) ([]byte, string, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.Post(base+"/v1/session", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get(cluster.NodeHeader), nil
}

func main() {
	ctx := context.Background()

	// A standalone node is the baseline the cluster must match.
	solo := httptest.NewServer(server.New(server.Config{NodeID: "solo"}).Handler())
	defer solo.Close()

	// Two compute nodes behind a consistent-hash router.
	nodeA := httptest.NewServer(server.New(server.Config{NodeID: "a"}).Handler())
	defer nodeA.Close()
	nodeB := httptest.NewServer(server.New(server.Config{NodeID: "b"}).Handler())
	defer nodeB.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{nodeA.URL, nodeB.URL}})
	if err != nil {
		log.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	names := map[string]string{nodeA.URL: "node-a", nodeB.URL: "node-b"}
	ok := true
	fmt.Println("two-node cluster vs a standalone blkd, same scenario mix:")
	for i, req := range scenarios() {
		want, _, err := post(solo.URL, req)
		if err != nil {
			log.Fatal(err)
		}
		got, node, err := post(front.URL, req)
		if err != nil {
			log.Fatal(err)
		}
		match := "byte-identical"
		if !bytes.Equal(want, got) {
			match = "DIVERGED"
			ok = false
		}
		fmt.Printf("  #%d %-12s %-4s %2d fps %ds  -> %-6s  %s\n",
			i+1, req.Scheme, req.Resolution, req.FPS, req.Seconds, names[node], match)
	}

	// Single ownership: each distinct scenario computed on exactly one
	// node, duplicates served from that node's cache.
	cs, err := api.NewClient(front.URL).ClusterStats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	var misses, hits uint64
	for _, st := range cs.Nodes {
		misses += st.CacheMisses
		hits += st.CacheHits
	}
	fmt.Printf("\nownership: %d distinct scenarios -> %d node misses, %d hits across %d nodes\n",
		distinct, misses, hits, len(cs.Nodes))
	for _, fc := range cs.Forwarded {
		fmt.Printf("  %-6s owned %d of %d routed requests\n", names[fc.Node], fc.Requests, cs.Requests)
	}
	if !ok || misses != distinct {
		os.Exit(1)
	}
}
