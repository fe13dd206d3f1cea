#!/usr/bin/env bash
# Appends one bench run to a JSON-lines record file, tagging each result
# line with the commit, the date and the machine context (nproc, and
# the build type and compiler of the build the binary comes from):
#
#   tools/bench_record.sh --out FILE <bench-binary> [args...]
#
# Bench binaries print one {"bench":...} JSON object per result (see
# bench/bench_util.h JsonResultLine); everything else they print is
# human-readable narration and is passed through to stderr.
#
# BENCH records are append-only: an --out that git already tracks is an
# earlier change's record and is refused. Scratch runs (e.g. the ci.sh
# gates) write under build/bench/ instead.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" != "--out" || $# -lt 3 ]]; then
  echo "usage: tools/bench_record.sh --out FILE <bench-binary> [args...]" >&2
  exit 2
fi
OUT="$2"
shift 2
if git ls-files --error-unmatch -- "$OUT" >/dev/null 2>&1; then
  echo "bench_record: $OUT is a committed record; write a new file" >&2
  exit 2
fi
mkdir -p "$(dirname "$OUT")"

# The binary's build directory is the nearest one above it that holds a
# CMakeCache.txt.
BUILD_DIR="$(cd "$(dirname "$1")" && pwd)"
while [[ "$BUILD_DIR" != / && ! -f "$BUILD_DIR/CMakeCache.txt" ]]; do
  BUILD_DIR="$(dirname "$BUILD_DIR")"
done
cache_var() {
  sed -n "s/^$1:[A-Z]*=//p" "$BUILD_DIR/CMakeCache.txt" 2>/dev/null | head -n1
}
BUILD_TYPE="$(cache_var CMAKE_BUILD_TYPE)"
CXX="$(cache_var CMAKE_CXX_COMPILER)"
COMPILER="$("${CXX:-false}" --version 2>/dev/null | head -n1 | tr -d '"\\')"

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
CONTEXT="$(printf '"commit":"%s","date":"%s","nproc":%s,"build_type":"%s","compiler":"%s"' \
  "$COMMIT" "$DATE" "$(nproc)" "${BUILD_TYPE:-unknown}" "${COMPILER:-unknown}")"

"$@" | while IFS= read -r line; do
  if [[ "$line" == '{"bench"'* ]]; then
    printf '{%s,%s\n' "$CONTEXT" "${line#\{}" >> "$OUT"
  else
    printf '%s\n' "$line" >&2
  fi
done
echo "recorded to $OUT" >&2
