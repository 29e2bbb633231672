#!/usr/bin/env sh
# Tier-1 verification loop plus the concurrency race gates and the
# fault-injection (chaos) gate.
#
# Three subsystems run goroutines on every request or round and
# therefore run under the race detector on every PR in addition to the
# plain tier-1 suite:
#   - the telemetry core (internal/obs): lock-free metric instruments,
#     the trace ring, and context propagation, all shared by every
#     request goroutine;
#   - the serving layer (internal/serve, internal/serve/client,
#     internal/serve/api, internal/router): LRU cache, worker pool,
#     metrics, middleware, hot reload / degraded fallback, and the
#     multi-process router's fan-out;
#   - the dispatcher (internal/shard): scorer swap and cache
#     generation under concurrent requests, bounded batch/probe
#     fan-out, hot reload;
#   - the ann subsystem (internal/ann + the shard/serve/router layers
#     above it): concurrent index search, async build/CAS-attach
#     against scorer swaps, and the semantic query endpoints;
#   - the parallel training/eval engine (internal/parallel,
#     internal/models/shared, internal/core, internal/eval): round-
#     parallel gradient workers, sharded attention recompute, fanned
#     evaluation — smoke-tested end to end by TestTrainingSmoke (tiny
#     dataset, 2 epochs, workers=4).
#
# The chaos gate sweeps deterministic filesystem faults (EIO, short
# writes, torn renames, sticky crashes) through every op index of the
# checkpoint write path and of the query-event ledger's append path,
# and runs the kill/crash-and-resume equivalence tests — including
# the ingest replay-equivalence golden (bit-identical overlay after
# ledger replay) — under -race.
#
# The federation gate pins the declarative schema registry to the
# legacy facility constructors (golden catalog fingerprints + the
# golden graph hashes) and smoke-tests the two-facility federated
# build/train/eval/serve path under -race.
#
#   scripts/ci.sh             # full loop: vet + build + tests + race + chaos + federation
#   scripts/ci.sh race        # race gates only
#   scripts/ci.sh chaos       # fault-injection + resume-equivalence gates only
#   scripts/ci.sh federation  # schema-registry golden + federated smoke gates only
set -eu
cd "$(dirname "$0")/.."

mode="${1:-all}"

if [ "$mode" = "all" ]; then
    echo "== gofmt -l"
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
    echo "== go vet ./..."
    go vet ./...
    echo "== go build ./..."
    go build ./...
    echo "== go test ./..."
    go test ./...
    # discbench/ is its own module (replace repro => ../), so the root
    # build skips it; vet and test it here so an API change it relies
    # on fails CI instead of the benchmark. Same module flags as
    # discbench/run.sh.
    echo "== discbench: go vet ./... && go test ./..."
    (cd discbench && GOFLAGS=-mod=readonly GOPROXY=off go vet ./... && \
        GOFLAGS=-mod=readonly GOPROXY=off go test ./...)
    echo "== scrape smoke: /metrics exposition + trace round trip (httptest)"
    go test -run 'TestMetricsEndpointExposition|TestEndpointCardinalityBounded|TestTraceEndToEnd' \
        -count 1 ./internal/serve/
    echo "== graph benchmarks -> BENCH_graph.json"
    scripts/bench_graph.sh
    echo "== serve benchmarks -> BENCH_serve.json"
    scripts/bench_serve.sh
    echo "== shard benchmarks -> BENCH_shard.json"
    scripts/bench_shard.sh
    echo "== ann benchmarks -> BENCH_ann.json"
    scripts/bench_ann.sh
    echo "== ingest benchmarks -> BENCH_ingest.json"
    scripts/bench_ingest.sh
    echo "== federation benchmarks -> BENCH_federation.json"
    scripts/bench_federation.sh
    echo "== capacity sweep -> BENCH_load.json"
    scripts/bench_load.sh
fi

if [ "$mode" = "all" ] || [ "$mode" = "federation" ]; then
    echo "== federation gate: registry-instantiated OOI/GAGE bit-identical to the legacy constructors"
    go test -run 'TestRegistryMatchesLegacyConstructors|TestGolden' -count 1 \
        ./internal/facility/ .
    echo "== federation gate: 2-facility build/train/eval/serve smoke under -race"
    go test -race -run 'TestFederationSmoke' -count 1 .
    go test -race -run 'TestFederated|TestBuildFederated' ./internal/serve/ ./internal/dataset/
fi

if [ "$mode" = "all" ] || [ "$mode" = "race" ]; then
    echo "== go test -race ./internal/obs/"
    go test -race ./internal/obs/
    echo "== loadgen smoke gate: open-loop step against an in-process server under -race"
    echo "   (zero client/server error-count divergence, SLO block present in /v1/stats)"
    go test -race -count 1 ./internal/loadgen/
    echo "== go test -race ./internal/serve/... ./internal/router/"
    go test -race ./internal/serve/... ./internal/router/
    echo "== shard race gate: dispatcher swap-under-traffic (ann rebuild, cache generation, reload) under -race"
    go test -race ./internal/shard/
    go test -race -run 'TestANNRebuildOnSwap|TestCacheGeneration|TestReload' \
        ./internal/serve/ ./internal/shard/
    echo "== ann race gate: index search + build/swap + query endpoints under -race"
    go test -race ./internal/ann/
    go test -race -run 'TestANN|TestNearest|TestConcurrentSearch' ./internal/ann/ ./internal/shard/
    go test -race -run 'TestQuery|TestANNFallbackOverHTTP|TestBatchModeHTTP|TestRouterQuery|TestRouterBatchModePropagation' \
        ./internal/serve/ ./internal/router/
    echo "== go test -race ./internal/parallel/ ./internal/models/shared/ ./internal/eval/"
    go test -race ./internal/parallel/ ./internal/models/shared/ ./internal/eval/
    echo "== go test -race -run 'TestTrainingSmoke|TestCKATParallel|TestCKATRecomputeAttention' . ./internal/core/"
    go test -race -run 'TestTrainingSmoke|TestCKATParallel|TestCKATRecomputeAttention' . ./internal/core/
fi

if [ "$mode" = "all" ] || [ "$mode" = "chaos" ]; then
    echo "== chaos: go test ./internal/ckpt/ ./internal/faultinject/"
    go test ./internal/ckpt/ ./internal/faultinject/
    echo "== chaos: resume equivalence under -race"
    go test -race -run 'TestKillAndResume|TestCrashDuringCheckpointWrite|TestResume' \
        ./internal/models/shared/
    go test -race -run 'TestCKATKillAndResume' ./internal/core/
    echo "== chaos: ledger fault-injection sweep + torn-tail recovery under -race"
    go test ./internal/ledger/
    go test -race -run 'TestChaos' ./internal/ledger/
    echo "== chaos: ingest replay equivalence (golden overlay hash) under -race"
    go test -race -run 'TestReplayEquivalenceGolden' ./internal/ingest/
fi

echo "CI OK"
