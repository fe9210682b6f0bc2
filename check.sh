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

# The fact cache is keyed on package contents and the analyzer set, but
# a change to blklint's own implementation (same analyzer names and
# docs, different behavior) is invisible to those keys. Hash the tool's
# sources and drop the cache whenever they change, so a stale cache can
# never mask a finding a newer analyzer would report.
toolhash=$(find internal/lint cmd/blklint -name '*.go' -not -path '*/testdata/*' -print | LC_ALL=C sort \
    | xargs cat | git hash-object --stdin)
if [ -d .blklint-cache ] && [ "$(cat .blklint-cache/.toolhash 2>/dev/null)" != "$toolhash" ]; then
    echo "== blklint sources changed; dropping .blklint-cache"
    rm -rf .blklint-cache
fi

# Locally, lint only what changed since the merge base with origin/main
# (fast inner loop); CI always runs the full module so nothing hides
# behind an old ref. If origin/main is absent entirely (fresh clone with
# no remote), fall back to the full run. But if the ref exists and no
# merge base can be computed (detached head, unrelated or shallow
# history), fail loudly: diffing against a non-ancestor produces a bogus
# changed-set, and a silently-empty one would pass lint on code that was
# never analyzed.
if [ -z "$CI" ] && git rev-parse --verify --quiet origin/main >/dev/null 2>&1; then
    if ! base=$(git merge-base HEAD origin/main 2>/dev/null); then
        echo "check.sh: origin/main exists but has no merge base with HEAD" >&2
        echo "  (detached head, shallow clone, or unrelated history)" >&2
        echo "  fix the checkout (git fetch --unshallow / reattach) or run CI=1 ./check.sh for a full-module lint" >&2
        exit 1
    fi
    echo "== blklint -changed $base (merge base with origin/main)"
    go run ./cmd/blklint -changed "$base"
else
    echo "== blklint ./..."
    go run ./cmd/blklint ./...
fi

# Warm-cache smoke: prime the fact cache, then re-run and require that
# the second pass actually served packages from it. This is the one
# place the incremental path is exercised end-to-end on every check, so
# a cache that silently stopped warming fails here, not in a slow CI.
echo "== blklint fact cache smoke"
go run ./cmd/blklint -cache ./...
mkdir -p .blklint-cache
printf '%s\n' "$toolhash" > .blklint-cache/.toolhash
cached=$(go run ./cmd/blklint -cache ./... 2>&1 >/dev/null \
    | sed -n 's/^blklint: fact cache: \([0-9]*\)\/.*$/\1/p')
if [ -z "$cached" ] || [ "$cached" -eq 0 ]; then
    echo "blklint fact cache: warm run served ${cached:-no} packages from cache; cache is not warming" >&2
    exit 1
fi
echo "warm run served $cached packages from cache"

# blklint's timings (module load, each analyzer, the full set, a warm
# fact-cache re-lint) live in one go test benchmark; one iteration of
# each keeps it from rotting. For timings with a spread, drop -benchtime
# and pass -count N.
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
