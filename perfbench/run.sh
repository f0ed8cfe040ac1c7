#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, forwarding every
# argument (--workload, --seed, --seconds, --trace). Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload search-cold --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes (Go build cache, binary, heap files, span
# dumps) stays under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
dir="$out/perfbench"
mkdir -p "$dir/tmp"

export GOCACHE="$dir/gocache" GOMODCACHE="$dir/gomodcache" TMPDIR="$dir/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -buildvcs=false -o "$dir/perfbench" .

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$dir/perfbench" -work "$dir/work" -commit "$commit" "$@"
