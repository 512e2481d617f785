#!/usr/bin/env bash
# Builds the DART benchmark from source and runs it.  Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload sip-audit --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch
# files stay under .bench_build/ in the checkout.  The last line of
# standard output is the JSON result; see perfbench/README.md.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gomodcache" "${out}/gotmp" "${out}/config"

# The Go command's cache, module cache, temporary files and telemetry
# counters (kept under the user config directory) all stay in out.
export XDG_CONFIG_HOME="${out}/config"
export GOPATH="${out}/gopath"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOTMPDIR="${out}/gotmp"
export GOFLAGS=
export GOWORK=off
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "${root}/perfbench" && go build -o "${out}/dartbench" .) >&2
exec "${out}/dartbench" -root "${root}" "$@"
