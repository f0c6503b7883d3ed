#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it there:
#
#   bash perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perf/run.sh                      # every workload, both passes
#   bash perf/run.sh -compare a.json b.json
#
# perf/ is a Go module of its own (it imports the repository's internal
# packages through a replace directive), so the build is one `go build`; its
# outputs, the Go build cache and everything the run writes stay under
# .bench_build/ and perf/out/ of this checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$root/perf"
	# Nothing is downloaded (the module has no dependencies outside the
	# checkout) and nothing is written outside $build.
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$build/perf" .
)

cd "$root"
exec "$build/perf" "$@"
