#!/usr/bin/env sh
# Produces BENCH_load.json: the open-loop capacity sweep. cmd/loadgen
# trains one small model, boots each topology in-process (one server,
# router + backends), replays the trace-derived
# endpoint mix at each rung of a Poisson-arrival rate ladder, and
# reports offered vs achieved QPS, client p50/p99 (measured from
# scheduled arrival — no coordinated omission), the server's own
# histogram-derived p99, shed/degraded counts, and the per-topology
# knee where the declared SLO first breaches.
#
#   scripts/bench_load.sh                    # default ladder, 2 topologies
#   RATES=200,400,800 STEPDUR=5s scripts/bench_load.sh
#   TOPOS=1shard,router4 scripts/bench_load.sh
set -eu
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_load.json}"
CSV="${CSV:-BENCH_load.csv}"
RATES="${RATES:-150,300,600,1200,2400,4800,9600}"
STEPDUR="${STEPDUR:-3s}"
TOPOS="${TOPOS:-1shard,router2}"
SLO_P99="${SLO_P99:-250}"
SLO_SHED="${SLO_SHED:-0.01}"

go run ./cmd/loadgen \
    -self "$TOPOS" \
    -rates "$RATES" \
    -step-dur "$STEPDUR" \
    -slo-p99 "$SLO_P99" \
    -slo-shed "$SLO_SHED" \
    -json "$OUT" \
    -csv "$CSV"

echo "wrote $OUT and $CSV"
