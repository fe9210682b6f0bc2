#!/bin/sh
# Repository check: tier-1 build+test, race detector, vet, formatting
# (simplify mode), domain static analysis (blklint) and its per-analyzer
# benchmark, fuzz smoke, and the benchmark's smoke test (every workload
# through its correctness gate).
# See README.md "Testing & verification" and "Static analysis".
set -e

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -s -l ."
fmt=$(gofmt -s -l .)
if [ -n "$fmt" ]; then
    echo "gofmt -s: these files need formatting/simplification:" >&2
    echo "$fmt" >&2
    exit 1
fi

# Domain static analysis over the whole module, the same run locally
# and in CI: findings (exit 1) and type errors (exit 2) both fail here.
echo "== blklint ./..."
go run ./cmd/blklint ./...

# blklint's timings (module load, each analyzer, the full set) live in
# one go test benchmark; one iteration of each keeps it from rotting.
# For timings with a spread, drop -benchtime and pass -count N.
echo "== blklint analyzer benchmark (one iteration each)"
go test -run '^$' -bench BenchmarkAnalyzers -benchtime 1x ./internal/lint

# Suppression budget: every //lint:ignore is a debt with a written
# reason; the count may only change deliberately, with this number.
echo "== lint suppression budget"
budget=2
count=$(grep -rn --include='*.go' -E '^[[:space:]]*//lint:ignore ' . --exclude-dir=testdata --exclude='*_test.go' | wc -l | tr -d ' ')
if [ "$count" -ne "$budget" ]; then
    echo "lint suppressions: found $count //lint:ignore directives, budget is $budget" >&2
    echo "adding one needs a reasoned directive AND a budget bump here:" >&2
    grep -rn --include='*.go' -E '^[[:space:]]*//lint:ignore ' . --exclude-dir=testdata --exclude='*_test.go' >&2 || true
    exit 1
fi

echo "== fuzz smoke (5s each)"
go test -run='^$' -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=5s ./internal/codec
go test -run='^$' -fuzz=FuzzResolutionFrameSize -fuzztime=5s ./internal/units
go test -run='^$' -fuzz=FuzzAPIDecodeRequest -fuzztime=5s ./internal/api
go test -run='^$' -fuzz=FuzzSegmentKey -fuzztime=5s ./internal/memo
go test -run='^$' -fuzz=FuzzScenarioKey -fuzztime=5s ./internal/memo
go test -run='^$' -fuzz=FuzzDeviceKey -fuzztime=5s ./internal/fleet
go test -run='^$' -fuzz=FuzzRingOwner -fuzztime=5s ./internal/cluster

# The benchmark (perfbench/, its own module) runs every workload at a
# tiny size through its correctness gate: routed bytes equal the owner's,
# sweep cells equal /v1/session, a node's fleet result equals an
# in-process fleet.Run, and the functional digest holds.
echo "== benchmark smoke (perfbench, all workloads)"
(cd perfbench && go test -count=1 ./...)

echo "== service binaries respond to -help"
go run ./cmd/blkd -help
go run ./cmd/blkload -help

# Cache sizes are deployment settings with no "off" value: blkd must
# refuse an empty cache as a usage error (exit 2). The unusable listen
# address makes a blkd that wrongly accepts the flag exit 1 instead of
# serving forever.
echo "== blkd rejects empty caches"
blkd_dir=$(mktemp -d)
go build -o "$blkd_dir/blkd" ./cmd/blkd
for flag in -cache -segcache; do
    status=0
    "$blkd_dir/blkd" -addr 127.0.0.1:-1 "$flag" 0 2>/dev/null || status=$?
    if [ "$status" -ne 2 ]; then
        echo "blkd $flag 0 exited $status; want 2 (rejected as a usage error)" >&2
        exit 1
    fi
done
rm -rf "$blkd_dir"

echo "all checks passed"
