#!/usr/bin/env bash
# Builds discbench from the checkout's sources and runs it:
#
#   bash discbench/run.sh --workload routed --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root. Every build output (binary, Go build
# cache) and every file a run writes stays under .bench_build/ in the
# checkout. The build fails, and so does this script, when the
# repository's own sources are not next to discbench/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
(cd "$root/discbench" && go build -o "$out/discbench" .)
if commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	export DISCBENCH_COMMIT="$commit"
else
	# Not a git checkout: identify the sources by content instead.
	tree="$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod -o -name '*.json' \) -type f -print \
		| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
	export DISCBENCH_COMMIT="tree-sha256:$tree"
fi
exec "$out/discbench" "$@"
