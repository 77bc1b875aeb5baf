#!/usr/bin/env bash
# Runs jmake's benchmark from the root of a source checkout, e.g.
#
#   bash perfbench/run.sh --workload window --seed 1 --seconds 20 --trace 0
#
# It builds the benchmark program (perfbench), cmd/jmaked and
# cmd/trace-check from this checkout into .bench_build/ and then runs
# perfbench, which prints the result as the last line of standard output.
# The Go build cache, the go command's configuration and telemetry
# directory, and temporary files live in .bench_build/ too, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/jmaked" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a jmake checkout (go.mod and cmd/jmaked not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
go build -C perfbench -o "$out/jmaked" jmake/cmd/jmaked
go build -C perfbench -o "$out/trace-check" jmake/cmd/trace-check

exec "$out/perfbench" -jmaked "$out/jmaked" -trace-check "$out/trace-check" -out "$out" "$@"
