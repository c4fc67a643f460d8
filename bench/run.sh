#!/usr/bin/env bash
# Builds the benchmark and the arthas-serve binary it drives from the
# checkout's sources, then runs the benchmark with the arguments given.
# Everything it writes stays inside the checkout: the binaries, the Go build
# cache, the toolchain's temporary files and its telemetry counters under
# .bench_build/, span files under bench/out/.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
if [[ ! -f go.mod || ! -d cmd/arthas-serve ]]; then
	echo "bench/run.sh: $root does not hold the arthas sources (go.mod, cmd/arthas-serve)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=
# With telemetry in its default "local" mode the first go command of the day
# starts a detached sidecar that outlives the build; "off" starts none.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

t0=$(date +%s%N)
go build -o "$build/arthas-serve" ./cmd/arthas-serve
go build -C bench -o "$build/arthas-perf" .
ns=$(($(date +%s%N) - t0))
printf -v build_s '%d.%09d' $((ns / 1000000000)) $((ns % 1000000000))

export ARTHAS_SERVE_BIN=$build/arthas-serve
# The benchmark stops the server it starts. It runs in a process group of its
# own (job control) so that even one that crashed leaves nothing running.
set -m
"$build/arthas-perf" -build-s "$build_s" "$@" &
pid=$!
trap 'kill -TERM -- -$pid 2>/dev/null || true' TERM INT
rc=0
wait $pid || rc=$?
while kill -0 $pid 2>/dev/null; do wait $pid || rc=$?; done
if kill -KILL -- -$pid 2>/dev/null; then
	for _ in {1..100}; do
		kill -0 -- -$pid 2>/dev/null || break
		sleep 0.05
	done
fi
exit $rc
