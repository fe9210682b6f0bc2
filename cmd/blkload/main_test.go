package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/cluster"
	"burstlink/internal/server"
)

// TestServerStatsThroughRouter pins the report after a routed run: one
// segment line per member, naming it and the requests the router
// forwarded to it, with that member's own counters — not a router
// document decoded as a node's, which reads as all zeros.
func TestServerStatsThroughRouter(t *testing.T) {
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

	ctx := context.Background()
	client := api.NewClient(front.URL)
	opts := api.LoadOptions{Concurrency: 4, Requests: 60, DupRate: 0.5, Seed: 1, Now: time.Now}
	if _, err := api.RunLoad(ctx, client, opts); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printServerStats(ctx, &out, client); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d segment lines, want one per member:\n%s", len(lines), out.String())
	}
	line := regexp.MustCompile(`^segments    (\S+) \((\d+) forwarded\): \d+ hits, (\d+) misses`)
	forwarded := 0
	for _, l := range lines {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("unexpected segment line %q", l)
		}
		n, _ := strconv.Atoi(m[2])
		forwarded += n
		if n > 0 && m[3] == "0" {
			t.Errorf("%s: %d forwarded requests but no segment misses: %q", m[1], n, l)
		}
	}
	if forwarded != opts.Requests {
		t.Errorf("lines account for %d forwarded requests, want %d", forwarded, opts.Requests)
	}

	// A node answers with its own document: one unlabeled line.
	out.Reset()
	if err := printServerStats(ctx, &out, api.NewClient(nodeA.URL)); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^segments    \d+ hits, [1-9]\d* misses`).MatchString(out.String()) {
		t.Errorf("node report = %q, want one unlabeled line with its misses", out.String())
	}
}
