// Fleet: simulate a device population two ways. First in-process —
// fleet.Run streaming a sampled population through the session engine
// into a streaming aggregate — then through a blkd daemon's /v1/fleet
// endpoint, plain (cacheable: run it twice and watch the hit) and
// streamed (NDJSON progress events). The aggregates are byte-identical
// across all three: same seed, same spec, same bytes, regardless of
// worker count or cache state.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"

	"burstlink/internal/api"
	"burstlink/internal/fleet"
	"burstlink/internal/memo"
	"burstlink/internal/server"
	"burstlink/internal/sink"
)

func main() {
	// In-process: the reference population (four device classes, a
	// four-way content mix including a VR stream) at 2000 devices.
	pop := fleet.Default()
	pop.Size = 2000
	pop.Seed = 42

	var agg sink.Agg
	out, err := fleet.Run(context.Background(), pop, &agg, fleet.Options{
		Memo: memo.NewCache(4096),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process: %d devices → %d unique configurations\n", out.Devices, out.Unique)
	for _, m := range agg.Summaries() {
		if m.Hist == nil {
			continue
		}
		fmt.Printf("  %-12s mean %7.2f  p50 %7.2f  p95 %7.2f  p99 %7.2f %s\n",
			m.Name, m.Mean, m.P50, m.P95, m.P99, m.Unit)
	}

	// The same population through a daemon. Start an in-process blkd on
	// an ephemeral loopback port; the calls work identically against a
	// standalone `go run ./cmd/blkd`.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(server.Config{})
	stop := srv.Start(l)
	defer func() {
		if err := stop(); err != nil {
			log.Fatal(err)
		}
	}()

	client := api.NewClient("http://" + l.Addr().String())
	ctx := context.Background()
	req := api.FleetRequest{Size: pop.Size, Seed: pop.Seed}

	// Plain POST /v1/fleet: one JSON body, cached under the canonical
	// key — the second call is a byte-identical cache hit.
	for i := 0; i < 2; i++ {
		res, status, err := client.Fleet(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("service:    %d devices → %d unique  [%s]\n", res.Devices, res.Unique, status)
	}

	// Streamed: NDJSON progress events, then the same final result.
	events := 0
	res, err := client.FleetStream(ctx, req, func(p api.FleetProgress) { events++ })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed:   %d devices → %d unique  (%d progress events)\n",
		res.Devices, res.Unique, events)

	// The invariant the result cache rests on: in-process and service
	// aggregates serialize to the same bytes.
	local, _ := json.Marshal(agg.Summaries())
	remote, _ := json.Marshal(res.Metrics)
	same := string(local) == string(remote)
	fmt.Printf("aggregates byte-identical: %t\n", same)
	if !same {
		os.Exit(1)
	}
}
