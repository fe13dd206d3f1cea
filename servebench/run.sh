#!/usr/bin/env bash
# Builds the serving benchmark from the sources in this checkout (into
# .bench_build/, incrementally) and runs one workload:
#
#   bash servebench/run.sh --workload dash_rw --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Exits non-zero, printing no result, if the build fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/servebench"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target servebench -j "$(nproc)" >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

exec "$build/servebench" --work-dir "$root/.bench_build/servebench-run" \
  --commit "$commit" "$@"
