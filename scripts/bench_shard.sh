#!/usr/bin/env sh
# Produces BENCH_shard.json: recommend:batch throughput through the
# dispatcher (every test user, warm score cache, bounded fan-out), as
# a JSON array for the perf trajectory across PRs. A process serves
# one shard; multi-shard capacity is measured through cmd/router by
# scripts/bench_load.sh.
#
# Each benchmark runs BENCHCOUNT times and the minimum ns/op is kept:
# the minimum is the standard robust estimator on shared machines,
# where co-tenant load only ever adds time.
#
#   scripts/bench_shard.sh                 # default 1s x 3 per benchmark
#   BENCHTIME=100x scripts/bench_shard.sh  # fixed iteration count
set -eu
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_shard.json}"
BENCHTIME="${BENCHTIME:-1s}"
BENCHCOUNT="${BENCHCOUNT:-3}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run XXX -bench 'BenchmarkDispatcherBatch' \
    -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" ./internal/shard/ | tee "$tmp"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (!(name in best) || ns + 0 < best[name] + 0) {
        if (!(name in best)) order[nn++] = name
        best[name] = ns
        iters[name] = $2
        mem[name] = bytes
        alloc[name] = allocs
    }
}
END {
    printf "[\n"
    for (k = 0; k < nn; k++) {
        name = order[k]
        if (k) printf ",\n"
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters[name], best[name]
        if (mem[name] != "")   printf ", \"bytes_per_op\": %s", mem[name]
        if (alloc[name] != "") printf ", \"allocs_per_op\": %s", alloc[name]
        printf "}"
    }
    printf "\n]\n"
}
' "$tmp" > "$OUT"
echo "wrote $OUT"
