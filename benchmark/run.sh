#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash benchmark/run.sh                        # every workload, untraced
#   bash benchmark/run.sh -workload routed -trace 1
#   bash benchmark/run.sh compare a.json b.json
#
# Everything the build and the run leave behind (Go build cache, binaries,
# model files, sockets, logs, result and trace files) stays in
# .bench_build at the repository root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# -buildvcs=false: the checkout may be an exported tree inside another
# repository, where VCS stamping fails; the environment block asks git
# for the commit instead.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C benchmark build -o "$out/boltbench" .
exec "$out/boltbench" "$@"
