#!/usr/bin/env bash
# CI entry point. Stages:
#   tools/ci.sh            # tier-1 build + full ctest, then the TSan
#                          # concurrency suites (pool, faults, server,
#                          # dist)
#   tools/ci.sh --asan     # additionally run the full suite under ASan/UBSan
#   tools/ci.sh analyze    # static stages: pcdb-analyze checker framework
#                          # (SARIF archived at build/analyze/analyze.sarif),
#                          # golden-fixture harness, clang-tidy, TSA build,
#                          # negative-compile check (clang stages self-skip
#                          # when clang/clang-tidy are not installed).
#   tools/ci.sh fuzz       # build fuzz harnesses under ASan/UBSan and smoke
#                          # each for ~30s (libFuzzer under clang; corpus +
#                          # deterministic mutation replay elsewhere)
#   tools/ci.sh server     # network subsystem: server unit/e2e suites, then
#                          # a live pcdbd smoke (ephemeral port, client ping/
#                          # query/stats, loadgen burst, graceful SIGTERM)
#   tools/ci.sh faults     # fault-injection matrix: rerun the suite with
#                          # benign sleep failpoints (results must be
#                          # unchanged), then arm every compiled-in site
#                          # with error/throw actions and require that
#                          # every swept test binary fails cleanly: none
#                          # dies abnormally, none passes untouched
#   tools/ci.sh ingest     # streaming write path: write-path suites, a live
#                          # ingest/punctuate smoke through pcdb_client, then
#                          # two mixed loadgen runs (punctuation-heavy vs
#                          # row-ingest-heavy) whose cache-hit-rate delta
#                          # demonstrates signature-keyed invalidation;
#                          # results land in build/bench/ingest.json
#   tools/ci.sh crash      # durable write path: WAL/checkpoint suites, then
#                          # a live kill -9 harness — scripted ingests killed
#                          # at a randomized offset (plain and under wal.*
#                          # failpoints), restart, every acked row must be
#                          # present; torn-tail fixture; duplicate-retry
#                          # exactly-once; SIGTERM drain checkpoint; group-
#                          # commit throughput (wal off vs on) in
#                          # build/bench/crash.json
#   tools/ci.sh dist       # distributed mode: dist suites, then a live
#                          # 3-shard fleet behind pcdb_coord — serial vs
#                          # distributed answer differential, write fan-out
#                          # with WAL-backed shards, kill -9 of one shard
#                          # mid-load (queries must degrade to Unavailable,
#                          # never a silently wrong completeness verdict),
#                          # restart + convergence; coordinator overhead and
#                          # 3-shard scaling land in build/bench/dist.json
#   tools/ci.sh obs        # observability: full suite under PCDB_TRACE=1,
#                          # validate the Chrome-trace dumps with
#                          # tools/check_trace.py, then measure loadgen
#                          # p50/p95/p99 with tracing off vs on and record
#                          # the overhead in build/bench/obs.json (p95
#                          # overhead must stay within 5% or 0.5ms,
#                          # whichever is larger)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
FUZZ_SECONDS="${FUZZ_SECONDS:-30}"
# The stages' bench legs record here. The committed BENCH_PR*.json files
# are earlier changes' records and stay as they were written.
BENCH_DIR="build/bench"
mkdir -p "$BENCH_DIR"

run_tier1() {
  echo "=== tier-1: release build + full ctest ==="
  cmake --preset release
  cmake --build --preset release -j "$JOBS"
  ctest --preset release -j "$JOBS"

  echo "=== TSan: pool + fault-injection + governed-context + server + dist suites ==="
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS" \
    --target fault_injection_test exec_context_test server_test dist_test
  # fault_injection_test holds the ThreadPoolTest suite; dist_test runs
  # the coordinator's jobs on the shared front end's workers and its
  # shard-connection idle list.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/fault_injection_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/exec_context_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/server_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dist_test
}

run_asan() {
  echo "=== ASan/UBSan: full test suite ==="
  cmake --preset asan
  cmake --build --preset asan -j "$JOBS"
  ctest --preset asan -j "$JOBS"
}

run_analyze() {
  echo "=== analyze: pcdb-analyze (checker framework) ==="
  # Human-readable findings gate the stage; the SARIF report is archived
  # next to the stage log for CI systems that ingest it.
  mkdir -p build/analyze
  python3 tools/analyze/pcdb_analyze.py | tee build/analyze/analyze.log
  python3 tools/analyze/pcdb_analyze.py --format sarif \
    --output build/analyze/analyze.sarif
  echo "SARIF report: build/analyze/analyze.sarif"

  echo "=== analyze: golden-fixture harness ==="
  python3 tests/analyze/golden_test.py

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== analyze: thread-safety analysis build (clang -Wthread-safety -Werror) ==="
    cmake --preset tsa
    cmake --build --preset tsa -j "$JOBS"

    echo "=== analyze: negative-compile check (mis-locked code must be rejected) ==="
    if clang++ -std=c++20 -fsyntax-only -Isrc -Wthread-safety -Werror \
        tests/thread_safety_negative.cc 2>/dev/null; then
      echo "ERROR: tests/thread_safety_negative.cc compiled cleanly — the" >&2
      echo "thread-safety annotations are not catching lock misuse." >&2
      exit 1
    fi
    echo "rejected as expected"
  else
    echo "--- clang++ not found: skipping TSA build + negative-compile check"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== analyze: clang-tidy ==="
    cmake --preset release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p build -quiet "src/.*\.cc$"
    else
      # shellcheck disable=SC2046
      clang-tidy -p build --quiet $(find src -name '*.cc')
    fi
  else
    echo "--- clang-tidy not found: skipping"
  fi

  echo "analyze OK"
}

run_fuzz() {
  echo "=== fuzz: build harnesses under ASan/UBSan ==="
  cmake --preset fuzz
  cmake --build --preset fuzz -j "$JOBS" \
    --target fuzz_sql fuzz_csv fuzz_algebra_diff fuzz_frames fuzz_cache_key \
             fuzz_wal fuzz_shard_route

  local have_libfuzzer=0
  if grep -q "PCDB_HAVE_LIBFUZZER:INTERNAL=1" build-fuzz/CMakeCache.txt \
      2>/dev/null; then
    have_libfuzzer=1
  fi

  for target in fuzz_sql:sql fuzz_csv:csv fuzz_algebra_diff:algebra \
      fuzz_frames:frames fuzz_cache_key:cache_key fuzz_wal:wal \
      fuzz_shard_route:shard_route; do
    local bin="${target%%:*}" corpus="fuzz/corpus/${target##*:}"
    echo "=== fuzz: $bin (${FUZZ_SECONDS}s smoke) ==="
    if [[ "$have_libfuzzer" == 1 ]]; then
      "./build-fuzz/fuzz/$bin" -max_total_time="$FUZZ_SECONDS" \
        -print_final_stats=1 "$corpus"
    else
      # Portable smoke: replay the checked-in corpus, then a budgeted
      # loop of deterministically mutated inputs (fixed seed per round,
      # so failures reproduce with the same round number).
      "./build-fuzz/fuzz/$bin" "$corpus"/*
      local deadline=$((SECONDS + FUZZ_SECONDS)) round=0
      local mutated
      mutated="$(mktemp -d)"
      while (( SECONDS < deadline )); do
        python3 tools/fuzz_mutate.py --seed "$round" --out "$mutated" \
          "$corpus"/*
        "./build-fuzz/fuzz/$bin" "$mutated"/*
        round=$((round + 1))
      done
      rm -rf "$mutated"
      echo "$bin: $round mutation rounds"
    fi
  done
  echo "fuzz OK"
}

run_server() {
  echo "=== server: build binaries + unit/e2e suites ==="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target protocol_test metrics_test answer_cache_test server_test \
             pcdbd pcdb_client pcdb_loadgen
  ./build/tests/protocol_test
  ./build/tests/metrics_test
  ./build/tests/answer_cache_test
  ./build/tests/server_test

  echo "=== server: daemon smoke on an ephemeral port ==="
  local logfile daemon port="" i
  logfile="$(mktemp)"
  ./build/tools/pcdbd --port 0 >"$logfile" 2>&1 &
  daemon=$!
  for i in $(seq 1 100); do
    port="$(sed -n 's/^pcdbd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$logfile")"
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  if [[ -z "$port" ]]; then
    echo "ERROR: pcdbd never announced its listening port" >&2
    cat "$logfile" >&2
    kill "$daemon" 2>/dev/null || true
    exit 1
  fi
  ./build/tools/pcdb_client --port "$port" --ping | grep -qx pong
  ./build/tools/pcdb_client --port "$port" \
    --sql "SELECT * FROM Warnings W JOIN Maintenance M ON W.ID=M.ID" \
    >/dev/null
  ./build/tools/pcdb_loadgen --port "$port" --connections 8 --requests 200
  ./build/tools/pcdb_client --port "$port" --stats | grep -q cache_hits

  kill -TERM "$daemon"
  local rc=0
  wait "$daemon" || rc=$?
  rm -f "$logfile"
  if (( rc != 0 )); then
    echo "ERROR: pcdbd exited $rc on SIGTERM (want graceful 0)" >&2
    exit 1
  fi
  echo "server OK"
}

run_faults() {
  echo "=== faults: injected-failpoint matrix ==="
  cmake --preset release
  cmake --build --preset release -j "$JOBS"

  # Dedicated coverage first: the deterministic site x action matrix and
  # the deadline/budget/degradation contracts.
  ./build/tests/fault_injection_test
  ./build/tests/exec_context_test

  echo "--- sleep-action injection: the full suite must pass unchanged"
  PCDB_FAILPOINTS="pool.dispatch=sleep(1);minimize.pattern=prob(0.01,7):sleep(1)" \
    ctest --preset release -j "$JOBS"

  echo "--- error/throw injection: tests must fail, the process may not die"
  # Keep this list in sync with Failpoints::AllSites()
  # (fault_injection_test cross-checks the same list programmatically).
  # pool.dispatch is deliberately absent here: an error or throw there
  # skips the task it guards, and on the server's eval pool that task is
  # a query job, which then never answers — the client waits instead of
  # failing. fault_injection_test above covers the site on a bare pool.
  # pcdb-analyze: allow(failpoint-drift): a dispatch fault on the server's eval pool skips a query job, which then never answers
  local sites="csv.read csv.record eval.operator eval.join.probe \
    minimize.pattern annotated.operator \
    server.accept server.read server.read.short server.decode server.write \
    server.ingest wal.open wal.append wal.append.short wal.corrupt \
    wal.fsync checkpoint.write checkpoint.rename recovery.record"
  local bins="relational_test minimize_test annotated_eval_test \
    protocol_test server_test wal_test dist_test"
  local action site spec bin rc
  for action in "error" "error(timeout)" "throw"; do
    spec=""
    for site in $sites; do spec="${spec}${site}=${action};"; done
    for bin in $bins; do
      rc=0
      PCDB_FAILPOINTS="$spec" "./build/tests/$bin" >/dev/null 2>&1 || rc=$?
      # gtest exits 1 when assertions failed — expected, since every
      # workload gets a fault injected. Anything above 1 — an abort, an
      # uncaught exception, a signal — means a failpoint escaped the
      # Status channel. Exit 0 means the injection reached nothing: the
      # binary disarmed the environment's spec or its sites moved.
      if (( rc > 1 )); then
        echo "ERROR: $bin died (exit $rc) under PCDB_FAILPOINTS=$spec" >&2
        exit 1
      fi
      if (( rc == 0 )); then
        echo "ERROR: $bin passed under PCDB_FAILPOINTS=$spec; the" \
          "injection exercised nothing" >&2
        exit 1
      fi
      echo "$bin under '$action' injection: exit $rc (clean)"
    done
  done
  echo "faults OK"
}

# Starts pcdbd (inheriting the caller's PCDB_TRACE* environment), runs
# one loadgen burst against it, echoes the loadgen JSON line, and stops
# the daemon. The cache is disabled so every request evaluates — cached
# answers would hide the tracing overhead this stage measures.
obs_loadgen_run() {
  local logfile daemon port="" i
  logfile="$(mktemp)"
  ./build/tools/pcdbd --port 0 --no-cache >"$logfile" 2>/dev/null &
  daemon=$!
  for i in $(seq 1 100); do
    port="$(sed -n 's/^pcdbd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$logfile")"
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  if [[ -z "$port" ]]; then
    echo "ERROR: pcdbd never announced its listening port" >&2
    kill "$daemon" 2>/dev/null || true
    return 1
  fi
  ./build/tools/pcdb_loadgen --port "$port" --connections 8 \
    --requests "${OBS_LOADGEN_REQUESTS:-2000}" \
    | grep '"bench":"pcdbd_loadgen"'
  kill -TERM "$daemon"
  wait "$daemon" || true
  rm -f "$logfile"
}

run_obs() {
  echo "=== obs: build + full suite under PCDB_TRACE=1 ==="
  cmake --preset release
  cmake --build --preset release -j "$JOBS"

  local tracedir
  tracedir="$(mktemp -d)"
  PCDB_TRACE=1 PCDB_TRACE_DIR="$tracedir" ctest --preset release -j "$JOBS"

  echo "=== obs: validate the Chrome-trace dumps ==="
  python3 tools/check_trace.py "$tracedir" --min-events 1000
  rm -rf "$tracedir"

  echo "=== obs: loadgen overhead, tracing off vs on ==="
  # Interleaved best-of-3 pairs: a single run's percentiles swing by
  # tens of percent on a shared machine, so each mode takes the best of
  # three runs before comparing (standard latency-benchmark practice —
  # the minimum is the least noise-contaminated estimate).
  local off_runs="" on_runs="" dump_dir i
  dump_dir="$(mktemp -d)"
  for i in 1 2 3; do
    off_runs="$off_runs$(obs_loadgen_run)"$'\n'
    on_runs="$on_runs$(PCDB_TRACE=1 PCDB_TRACE_DIR="$dump_dir" \
      obs_loadgen_run)"$'\n'
  done
  python3 tools/check_trace.py "$dump_dir" --min-events 100
  rm -rf "$dump_dir"

  local obs_out="$BENCH_DIR/obs.json"
  if ! python3 - "$off_runs" "$on_runs" > "$obs_out" <<'PY'
import json, sys
def parse(blob):
    return [json.loads(line) for line in blob.splitlines() if line.strip()]
def best(runs, key):
    return min(r[key] for r in runs)
off, on = parse(sys.argv[1]), parse(sys.argv[2])
def pct(base, new):
    return (new - base) / base * 100.0 if base > 0 else 0.0
def mode_summary(runs):
    return {
        "p50_ms": best(runs, "median_ms"), "p95_ms": best(runs, "p95_ms"),
        "p99_ms": best(runs, "p99_ms"),
        "qps": max(r["qps"] for r in runs),
        "runs": [{"p50_ms": r["median_ms"], "p95_ms": r["p95_ms"],
                  "p99_ms": r["p99_ms"], "qps": r["qps"]} for r in runs],
    }
out = {
    "bench": "pr5_tracing_overhead",
    "workload": {"requests": off[0]["n"], "connections": off[0]["threads"],
                 "cache": "disabled", "runs_per_mode": len(off),
                 "comparison": "best-of-runs per mode"},
    "tracing_off": mode_summary(off),
    "tracing_on": mode_summary(on),
    "p50_overhead_pct": round(
        pct(best(off, "median_ms"), best(on, "median_ms")), 2),
    "p95_overhead_pct": round(pct(best(off, "p95_ms"), best(on, "p95_ms")),
                              2),
    "p99_overhead_pct": round(pct(best(off, "p99_ms"), best(on, "p99_ms")),
                              2),
}
json.dump(out, sys.stdout, indent=2)
print()
# Gate: p95 overhead over 5% fails, with a 0.5ms absolute floor so
# sub-millisecond baselines don't fail on scheduler noise.
bad = (out["p95_overhead_pct"] > 5.0
       and best(on, "p95_ms") - best(off, "p95_ms") > 0.5)
sys.exit(1 if bad else 0)
PY
  then
    cat "$obs_out" >&2
    echo "ERROR: tracing p95 overhead exceeds 5% (and 0.5ms)" >&2
    exit 1
  fi
  cat "$obs_out"

  echo "=== obs: fleet trace — 3 shards + pcdb_coord, merge + stitch ==="
  local fleet_dir fleet_ports=() fleet_coord s
  fleet_dir="$(mktemp -d)"
  export PCDB_TRACE=1 PCDB_TRACE_DIR="$fleet_dir"
  for s in 0 1 2; do
    dist_start pcdbd --port 0 --shard-id "$s" --num-shards 3 \
      --hashed Warnings
    fleet_ports[s]="$DIST_PORT"
  done
  dist_start pcdb_coord --shards \
    "127.0.0.1:${fleet_ports[0]},127.0.0.1:${fleet_ports[1]},127.0.0.1:${fleet_ports[2]}" \
    --hashed Warnings
  fleet_coord="$DIST_PORT"
  unset PCDB_TRACE PCDB_TRACE_DIR
  # A traced broadcast query, a merged EXPLAIN ANALYZE profile, and the
  # fleet-aggregated STATS payload — the three fleet views from
  # docs/OBSERVABILITY.md "Tracing a fleet query".
  ./build/tools/pcdb_client --port "$fleet_coord" \
    --sql "SELECT * FROM Warnings WHERE week=2" >/dev/null
  ./build/tools/pcdb_client --port "$fleet_coord" --profile \
    --sql "SELECT * FROM Warnings WHERE week=2" \
    | grep -q '"distributed":true'
  ./build/tools/pcdb_client --port "$fleet_coord" --stats \
    | grep -q '"fleet"'
  obs_dist_stop_fleet
  python3 tools/trace_merge.py "$fleet_dir" --out "$fleet_dir/merged.json"
  python3 tools/check_trace.py "$fleet_dir/merged.json" --stitched \
    --min-events 50
  rm -rf "$fleet_dir"

  local fleet_out="$BENCH_DIR/obs_fleet.json"
  echo "=== obs: coordinator-path tracing overhead ($fleet_out) ==="
  rm -f "$fleet_out"
  local dump_dir10
  dump_dir10="$(mktemp -d)"
  obs_dist_bench_fleet 3 "$fleet_out"
  PCDB_TRACE=1 PCDB_TRACE_DIR="$dump_dir10" obs_dist_bench_fleet 3 "$fleet_out"
  rm -rf "$dump_dir10"
  if ! python3 - "$fleet_out" <<'PY'
import json, sys
out_path = sys.argv[1]
runs = [json.loads(line) for line in open(out_path)
        if line.strip()]
runs = [r for r in runs if r.get("bench") == "pcdbd_loadgen"]
assert len(runs) == 6, f"expected 3 off + 3 on runs, got {len(runs)}"
off, on = runs[:3], runs[3:]
def best(rs, key):
    return min(r[key] for r in rs)
def pct(base, new):
    return (new - base) / base * 100.0 if base > 0 else 0.0
def mode_summary(rs):
    return {"p50_ms": best(rs, "median_ms"), "p95_ms": best(rs, "p95_ms"),
            "p99_ms": best(rs, "p99_ms"), "qps": max(r["qps"] for r in rs)}
summary = {
    "bench": "pr10_dist_tracing_overhead",
    "commit": off[0]["commit"],
    "date": off[0]["date"],
    "workload": {"requests": off[0]["n"], "connections": off[0]["threads"],
                 "deployment": "pcdb_coord over 3 pcdbd shards, cache off, "
                               "row-seeded Warnings",
                 "comparison": "best-of-3 per mode"},
    "tracing_off": mode_summary(off),
    "tracing_on": mode_summary(on),
    "p50_overhead_pct": round(
        pct(best(off, "median_ms"), best(on, "median_ms")), 2),
    "p95_overhead_pct": round(
        pct(best(off, "p95_ms"), best(on, "p95_ms")), 2),
}
with open(out_path, "a") as f:
    json.dump(summary, f)
    f.write("\n")
print(json.dumps(summary, indent=2))
# Gate as in the single-server leg: p95 overhead over 5% fails, with a 0.5 ms
# absolute floor so sub-millisecond baselines ignore scheduler noise.
# Any request errors in any leg fail outright.
bad = (summary["p95_overhead_pct"] > 5.0
       and best(on, "p95_ms") - best(off, "p95_ms") > 0.5)
bad = bad or any(r.get("errors", 0) or r.get("write_errors", 0)
                 for r in runs)
raise SystemExit(1 if bad else 0)
PY
  then
    cat "$fleet_out" >&2
    echo "ERROR: coordinator-path tracing p95 overhead exceeds 5%" \
      "(and 0.5ms), or a bench leg saw errors" >&2
    exit 1
  fi
  echo "obs OK"
}

# Stops the current dist_start fleet with SIGTERM and waits, so the
# tracer's at-exit dump runs (dist_cleanup's kill -9 skips it), then
# reaps the log files.
obs_dist_stop_fleet() {
  local pid
  for pid in "${DIST_PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in "${DIST_PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
  dist_cleanup
}

# Starts a fresh 3-shard fleet (cache off, so every request evaluates)
# behind pcdb_coord, records $1 loadgen bursts through the coordinator
# into the file $2, and stops the fleet with SIGTERM. The caller's
# PCDB_TRACE/PCDB_TRACE_DIR environment decides traced vs untraced.
#
# The workload database holds only a handful of Warnings rows, which
# would make the fixed per-operator span cost look like a huge fraction
# of a microscopic request. Each fleet is therefore seeded with
# OBS_DIST_SEED_ROWS synthetic rows (one batched retract-policy ingest
# through the coordinator; weeks >= 3, so the bench query's week=2
# filter keeps the answer unchanged while every scan pays the
# realistic per-row cost), then warmed with one untimed burst so both
# modes record at their steady state.
obs_dist_bench_fleet() {  # runs out
  local s i r bench_ports=() bench_coord row_args=()
  local seed_rows="${OBS_DIST_SEED_ROWS:-4000}"
  for s in 0 1 2; do
    dist_start pcdbd --port 0 --shard-id "$s" --num-shards 3 \
      --hashed Warnings --no-cache
    bench_ports[s]="$DIST_PORT"
  done
  dist_start pcdb_coord --shards \
    "127.0.0.1:${bench_ports[0]},127.0.0.1:${bench_ports[1]},127.0.0.1:${bench_ports[2]}" \
    --hashed Warnings
  bench_coord="$DIST_PORT"
  for r in $(seq 1 "$seed_rows"); do
    row_args+=(--row "w$((r % 7)),$((3 + r % 997)),sw$r,seed")
  done
  ./build/tools/pcdb_client --port "$bench_coord" --policy retract \
    --ingest Warnings "${row_args[@]}" | grep -q "ingested=$seed_rows"
  ./build/tools/pcdb_loadgen --endpoints "127.0.0.1:$bench_coord" \
    --connections 8 --requests "${OBS_LOADGEN_REQUESTS:-2000}" >/dev/null
  for i in $(seq 1 "$1"); do
    tools/bench_record.sh --out "$2" ./build/tools/pcdb_loadgen \
      --endpoints "127.0.0.1:$bench_coord" --connections 8 \
      --requests "${OBS_LOADGEN_REQUESTS:-2000}"
  done
  obs_dist_stop_fleet
}

# Starts pcdbd with the cache ON, runs one mixed loadgen burst with the
# given extra flags, echoes the loadgen JSON line, stops the daemon. A
# fresh daemon per run keeps cache state from leaking between mixes.
ingest_loadgen_run() {
  local logfile daemon port="" i
  logfile="$(mktemp)"
  ./build/tools/pcdbd --port 0 >"$logfile" 2>/dev/null &
  daemon=$!
  for i in $(seq 1 100); do
    port="$(sed -n 's/^pcdbd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$logfile")"
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  if [[ -z "$port" ]]; then
    echo "ERROR: pcdbd never announced its listening port" >&2
    kill "$daemon" 2>/dev/null || true
    return 1
  fi
  ./build/tools/pcdb_loadgen --port "$port" --connections 8 \
    --requests "${INGEST_LOADGEN_REQUESTS:-2000}" "$@" \
    | grep '"bench":"pcdbd_loadgen"'
  kill -TERM "$daemon"
  wait "$daemon" || true
  rm -f "$logfile"
}

run_ingest() {
  echo "=== ingest: build + write-path suites ==="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target protocol_test answer_cache_test server_test feed_test \
             fault_injection_test pcdbd pcdb_client pcdb_loadgen
  ./build/tests/protocol_test
  ./build/tests/answer_cache_test
  ./build/tests/feed_test
  ./build/tests/server_test
  ./build/tests/fault_injection_test \
    --gtest_filter='*CoveringWorkloads*:*EverySiteFires*'

  echo "=== ingest: live INGEST/PUNCTUATE smoke through pcdb_client ==="
  local logfile daemon port="" i
  logfile="$(mktemp)"
  ./build/tools/pcdbd --port 0 --tenant-quota 64 >"$logfile" 2>&1 &
  daemon=$!
  for i in $(seq 1 100); do
    port="$(sed -n 's/^pcdbd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$logfile")"
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  if [[ -z "$port" ]]; then
    echo "ERROR: pcdbd never announced its listening port" >&2
    cat "$logfile" >&2
    kill "$daemon" 2>/dev/null || true
    exit 1
  fi
  ./build/tools/pcdb_client --port "$port" --ingest Warnings \
    --row "Thu,3,tw90,ci smoke" --row "Fri,4,tw91,ci smoke" \
    | grep -q 'ingested=2'
  ./build/tools/pcdb_client --port "$port" --punctuate Warnings \
    --fields "ci,*,*,*" | grep -q 'punctuations=1'
  # A row violating the new promise: rejected under the default policy,
  # admitted (with the promise withdrawn) under --policy retract.
  ./build/tools/pcdb_client --port "$port" --ingest Warnings \
    --row "ci,9,tw92,late" | grep -q 'rejected=1'
  ./build/tools/pcdb_client --port "$port" --policy retract \
    --ingest Warnings --row "ci,9,tw92,late" | grep -q 'retracted=1'
  ./build/tools/pcdb_client --port "$port" --stats \
    | grep -q '"ingest_rows_total":3'
  kill -TERM "$daemon"
  local rc=0
  wait "$daemon" || rc=$?
  rm -f "$logfile"
  if (( rc != 0 )); then
    echo "ERROR: pcdbd exited $rc on SIGTERM (want graceful 0)" >&2
    exit 1
  fi

  echo "=== ingest: cache precision, punctuation-mix vs row-ingest mix ==="
  # Both mixes disturb the Warnings table at the same 20% op rate. The
  # punctuation mix adds day-constant completeness patterns — signature
  # {day}, incomparable with the query mix's {week} constant mask — so
  # signature-keyed invalidation preserves cached answers. The row mix
  # bumps the table epoch wholesale and pays real misses. The gap
  # between the two hit rates is the precision win.
  local punct_run ingest_run
  punct_run="$(ingest_loadgen_run --punctuate-pct 20)"
  ingest_run="$(ingest_loadgen_run --write-pct 20)"

  local ingest_out="$BENCH_DIR/ingest.json"
  if ! python3 - "$punct_run" "$ingest_run" > "$ingest_out" <<'PY'
import json, os, sys
punct, ingest = (json.loads(a) for a in sys.argv[1:3])
def summary(r):
    keys = ("cache_hit_rate", "qps", "median_ms", "p95_ms", "p99_ms",
            "writes", "write_errors", "write_p95_ms")
    return {k: r[k] for k in keys if k in r}
delta = punct["cache_hit_rate"] - ingest["cache_hit_rate"]
out = {
    "bench": "pr6_signature_invalidation_precision",
    "workload": {"requests": punct["n"], "connections": punct["threads"],
                 "write_op_pct": 20,
                 "query": "Q_hw (Warnings constant mask {week})"},
    "punctuate_mix": summary(punct),
    "row_ingest_mix": summary(ingest),
    "cache_hit_rate_delta": round(delta, 4),
}
for name in ("BENCH_PR4.json", "BENCH_PR5.json"):
    # Prior bench files may hold one object or one object per line.
    if os.path.exists(name):
        with open(name) as f:
            blob = f.read()
        try:
            base = json.loads(blob)
        except ValueError:
            base = json.loads(blob.splitlines()[0])
        out.setdefault("baselines", {})[name] = base.get("bench")
json.dump(out, sys.stdout, indent=2)
print()
# Gate: punctuations must be strictly cheaper than row ingest for the
# cache. If signature keying regressed, both mixes invalidate alike and
# the delta collapses to ~0.
sys.exit(0 if delta > 0.02 else 1)
PY
  then
    cat "$ingest_out" >&2
    echo "ERROR: punctuation mix shows no cache-hit-rate advantage over" >&2
    echo "row ingest — signature-keyed invalidation is not sparing" >&2
    echo "incomparable entries" >&2
    exit 1
  fi
  cat "$ingest_out"
  echo "ingest OK"
}

# Starts ./build/tools/pcdbd with the given flags in the background and
# waits for the port announcement. Sets CRASH_DAEMON (pid), CRASH_PORT,
# and CRASH_LOG (the daemon's combined output; caller removes it).
crash_start_daemon() {
  CRASH_LOG="$(mktemp)"
  ./build/tools/pcdbd "$@" >"$CRASH_LOG" 2>&1 &
  CRASH_DAEMON=$!
  local i port=""
  for i in $(seq 1 100); do
    port="$(sed -n 's/^pcdbd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$CRASH_LOG")"
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  if [[ -z "$port" ]]; then
    echo "ERROR: pcdbd never announced its listening port" >&2
    cat "$CRASH_LOG" >&2
    kill "$CRASH_DAEMON" 2>/dev/null || true
    exit 1
  fi
  CRASH_PORT="$port"
}

# kill -9 the current crash daemon and reap it.
crash_kill9() {
  kill -9 "$CRASH_DAEMON" 2>/dev/null || true
  wait "$CRASH_DAEMON" 2>/dev/null || true
  rm -f "$CRASH_LOG"
}

# Graceful SIGTERM; a non-zero daemon exit fails the stage.
crash_drain() {
  kill -TERM "$CRASH_DAEMON"
  local rc=0
  wait "$CRASH_DAEMON" || rc=$?
  rm -f "$CRASH_LOG"
  if (( rc != 0 )); then
    echo "ERROR: pcdbd exited $rc on SIGTERM (want graceful 0)" >&2
    exit 1
  fi
}

# One group-commit bench leg: a write-heavy loadgen burst against a
# daemon started with the given flags. Echoes the loadgen JSON line,
# then the server's stats JSON (for the records-per-fsync ratio).
crash_bench_run() {
  crash_start_daemon "$@"
  ./build/tools/pcdb_loadgen --port "$CRASH_PORT" --connections 8 \
    --requests "${CRASH_LOADGEN_REQUESTS:-2000}" --write-pct 80 \
    | grep '"bench":"pcdbd_loadgen"'
  ./build/tools/pcdb_client --port "$CRASH_PORT" --stats
  crash_drain
}

run_crash() {
  echo "=== crash: build + WAL/checkpoint/recovery suites ==="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target wal_test server_test fault_injection_test \
             pcdbd pcdb_client pcdb_wal_dump pcdb_loadgen
  # Torn-tail goldens, checkpoint round trips, idempotent-retry and
  # randomized differential recovery all live in wal_test.
  ./build/tests/wal_test
  ./build/tests/fault_injection_test \
    --gtest_filter='*CoveringWorkloads*:*EverySiteFires*'

  local waldir acked stats answer recovered i n
  waldir="$(mktemp -d)"
  # Seeded shell RNG: the kill offset is randomized per run yet printed,
  # so a failure reproduces by exporting CRASH_SEED.
  RANDOM="${CRASH_SEED:-$$}"
  local kill_after=$((3 + RANDOM % 15))
  echo "=== crash: kill -9 mid-ingest after $kill_after acked writes ==="
  crash_start_daemon --wal-dir "$waldir"
  acked=""
  for i in $(seq 1 "$kill_after"); do
    ./build/tools/pcdb_client --port "$CRASH_PORT" --ingest Warnings \
      --row "Mon,42,cr$i,crash run" | grep -q 'ingested=1'
    acked="$acked cr$i"
  done
  # A concurrent write burst is mid-flight when the process dies; its
  # unacked tail may land or not, but nothing acked may be lost.
  ./build/tools/pcdb_loadgen --port "$CRASH_PORT" --connections 4 \
    --requests 4000 --write-pct 50 --no-warmup >/dev/null 2>&1 &
  local burst=$!
  sleep "0.$((1 + RANDOM % 8))"
  crash_kill9
  wait "$burst" 2>/dev/null || true

  # The offline inspector reads the crashed log (possibly mid-record)
  # without mutating it; a torn tail here is expected, not an error.
  ./build/tools/pcdb_wal_dump --dir "$waldir" >/dev/null 2>&1 || true

  crash_start_daemon --wal-dir "$waldir"
  stats="$(./build/tools/pcdb_client --port "$CRASH_PORT" --stats)"
  recovered="$(sed -n 's/.*"wal_recovered_records":\([0-9]*\).*/\1/p' \
    <<<"$stats")"
  if (( recovered < kill_after )); then
    echo "ERROR: recovered $recovered WAL records, want >= $kill_after" >&2
    exit 1
  fi
  answer="$(./build/tools/pcdb_client --port "$CRASH_PORT" \
    --sql "SELECT * FROM Warnings WHERE week=42")"
  for i in $acked; do
    if ! grep -qw "$i" <<<"$answer"; then
      echo "ERROR: acked row $i lost across kill -9" >&2
      exit 1
    fi
  done
  echo "crash: $recovered records recovered; all $kill_after acked rows present"

  echo "=== crash: duplicate retry applies exactly once ==="
  ./build/tools/pcdb_client --port "$CRASH_PORT" --writer-id 4242 \
    --ingest Warnings --row "Tue,43,dup1,first" | grep -q 'duplicate=0'
  ./build/tools/pcdb_client --port "$CRASH_PORT" --writer-id 4242 \
    --ingest Warnings --row "Tue,43,dup1,first" | grep -q 'duplicate=1'
  n="$(./build/tools/pcdb_client --port "$CRASH_PORT" \
    --sql "SELECT * FROM Warnings WHERE week=43" | grep -cw dup1)"
  if [[ "$n" != 1 ]]; then
    echo "ERROR: duplicate-seq ingest applied $n times (want exactly 1)" >&2
    exit 1
  fi

  echo "=== crash: SIGTERM drain checkpoints; restart replays nothing ==="
  crash_drain
  if [[ ! -f "$waldir/CHECKPOINT" ]]; then
    echo "ERROR: graceful drain left no checkpoint" >&2
    exit 1
  fi
  crash_start_daemon --wal-dir "$waldir"
  ./build/tools/pcdb_client --port "$CRASH_PORT" --stats \
    | grep -q '"wal_recovered_records":0'
  ./build/tools/pcdb_client --port "$CRASH_PORT" \
    --sql "SELECT * FROM Warnings WHERE week=42" | grep -qw cr1

  echo "=== crash: torn-tail fixture recovers the valid prefix ==="
  crash_kill9
  # Simulate a crash mid-append: a partial record after the last durable
  # byte of the newest segment.
  local last_segment
  last_segment="$(ls "$waldir"/wal-*.log | sort | tail -1)"
  printf '\x40\x00\x00\x00torn' >>"$last_segment"
  # wal_dump exits 1 on a torn segment by design; capture first so the
  # pipefail doesn't mask the grep.
  local dump
  dump="$(./build/tools/pcdb_wal_dump --dir "$waldir" || true)"
  if ! grep -q 'torn tail' <<<"$dump"; then
    echo "ERROR: pcdb_wal_dump did not flag the torn tail" >&2
    exit 1
  fi
  crash_start_daemon --wal-dir "$waldir"
  ./build/tools/pcdb_client --port "$CRASH_PORT" --stats \
    | grep -q '"wal_torn_tail_total":1'
  ./build/tools/pcdb_client --port "$CRASH_PORT" \
    --sql "SELECT * FROM Warnings WHERE week=43" | grep -qw dup1

  echo "=== crash: kill -9 under wal.* failpoints, acked rows recover ==="
  crash_kill9
  # Error-surfacing injection only: silent-corruption sites (wal.corrupt,
  # wal.append.short) are covered deterministically by wal_test and the
  # fault matrix; arming them on a live daemon would corrupt acked bytes
  # by design and make "every acked row recovers" unverifiable.
  PCDB_FAILPOINTS="wal.fsync=prob(0.3,11):error(timeout)" \
    crash_start_daemon --wal-dir "$waldir"
  acked=""
  for i in $(seq 1 12); do
    if ./build/tools/pcdb_client --port "$CRASH_PORT" --ingest Warnings \
        --row "Wed,44,fp$i,failpoint run" 2>/dev/null \
        | grep -q 'ingested=1'; then
      acked="$acked fp$i"
    fi
  done
  crash_kill9
  crash_start_daemon --wal-dir "$waldir"
  answer="$(./build/tools/pcdb_client --port "$CRASH_PORT" \
    --sql "SELECT * FROM Warnings WHERE week=44")"
  for i in $acked; do
    if ! grep -qw "$i" <<<"$answer"; then
      echo "ERROR: acked row $i lost (wal.fsync failpoint run)" >&2
      exit 1
    fi
  done
  echo "crash: failpoint run acked$acked — all recovered"
  crash_drain
  rm -rf "$waldir"

  echo "=== crash: group-commit throughput, wal off vs on ==="
  local nowal_out wal_out waldir2
  waldir2="$(mktemp -d)"
  nowal_out="$(crash_bench_run)"
  wal_out="$(crash_bench_run --wal-dir "$waldir2")"
  rm -rf "$waldir2"
  local crash_out="$BENCH_DIR/crash.json"
  if ! python3 - "$nowal_out" "$wal_out" > "$crash_out" <<'PY'
import json, sys
def parse(blob):
    lines = [l for l in blob.splitlines() if l.strip()]
    return json.loads(lines[0]), json.loads(lines[1])  # loadgen, stats
def summary(run):
    keys = ("qps", "median_ms", "p95_ms", "writes", "write_errors",
            "write_p95_ms")
    return {k: run[k] for k in keys if k in run}
nowal, nowal_stats = parse(sys.argv[1])
wal, wal_stats = parse(sys.argv[2])
records = wal_stats["counters"].get("wal_records_total", 0)
fsyncs = wal_stats["counters"].get("wal_fsyncs_total", 0)
out = {
    "bench": "pr8_group_commit",
    "workload": {"requests": wal["n"], "connections": wal["threads"],
                 "write_op_pct": 80},
    "wal_off": summary(nowal),
    "wal_on": summary(wal),
    "wal_records_total": records,
    "wal_fsyncs_total": fsyncs,
    "records_per_fsync": round(records / fsyncs, 2) if fsyncs else None,
    "wal_on_qps_ratio": round(wal["qps"] / nowal["qps"], 3)
        if nowal.get("qps") else None,
}
json.dump(out, sys.stdout, indent=2)
print()
# Gate: the WAL leg must actually have logged and fsynced, with group
# commit never issuing more fsyncs than records.
sys.exit(0 if records > 0 and 0 < fsyncs <= records else 1)
PY
  then
    cat "$crash_out" >&2
    echo "ERROR: group-commit accounting is wrong (no records, no" >&2
    echo "fsyncs, or more fsyncs than records)" >&2
    exit 1
  fi
  cat "$crash_out"
  echo "crash OK"
}

# --- distributed-mode helpers -------------------------------------------

# Starts ./build/tools/$1 (pcdbd or pcdb_coord) in the background with
# the remaining args and waits for its "<name> listening on
# 127.0.0.1:PORT" announcement. Sets DIST_PORT; the pid and log file are
# pushed onto DIST_PIDS/DIST_LOGS so dist_cleanup can reap the whole
# fleet at once.
DIST_PIDS=()
DIST_LOGS=()
dist_start() {
  local name="$1"
  shift
  local logfile port="" i
  logfile="$(mktemp)"
  "./build/tools/$name" "$@" >"$logfile" 2>&1 &
  DIST_PIDS+=($!)
  DIST_LOGS+=("$logfile")
  for i in $(seq 1 200); do
    port="$(sed -n "s/^$name listening on 127\.0\.0\.1:\([0-9]*\)\$/\1/p" \
      "$logfile")"
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  if [[ -z "$port" ]]; then
    echo "ERROR: $name never announced its listening port" >&2
    cat "$logfile" >&2
    dist_cleanup
    exit 1
  fi
  DIST_PORT="$port"
}

dist_cleanup() {
  local pid logfile
  for pid in "${DIST_PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  for logfile in "${DIST_LOGS[@]}"; do rm -f "$logfile"; done
  DIST_PIDS=()
  DIST_LOGS=()
}

# Order-normalized answer text for one query: rows and completeness
# patterns sorted as lines, the per-run timing footer dropped (cache
# hits and latencies legitimately differ between deployments).
dist_answer() {  # port sql
  ./build/tools/pcdb_client --port "$1" --sql "$2" | grep -v '^-- ' | sort
}

# The distributed differential: the coordinator's answer to each query —
# rows AND minimized completeness patterns — must be line-identical
# (order-normalized) with the serial single-process server's.
dist_differential() {  # coord_port direct_port
  local q serial distributed
  for q in \
      "SELECT * FROM Warnings" \
      "SELECT * FROM Warnings WHERE week=7" \
      "SELECT * FROM Teams" \
      "SELECT * FROM Maintenance M JOIN Teams T ON M.responsible=T.name" \
      "SELECT name FROM Teams UNION ALL SELECT responsible FROM Maintenance"; do
    serial="$(dist_answer "$2" "$q")"
    distributed="$(dist_answer "$1" "$q")"
    if [[ "$serial" != "$distributed" ]]; then
      echo "ERROR: distributed answer differs from serial for: $q" >&2
      diff <(echo "$serial") <(echo "$distributed") >&2 || true
      exit 1
    fi
  done
}

run_dist() {
  echo "=== dist: build + distributed suites ==="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target dist_test protocol_test server_test \
             pcdbd pcdb_coord pcdb_client pcdb_loadgen
  ./build/tests/dist_test
  ./build/tests/protocol_test --gtest_filter='*ShardInfo*:*Tenant*'
  ./build/tests/server_test --gtest_filter='*Shard*:*ReadQuota*'

  echo "=== dist: 3-shard WAL-backed fleet behind pcdb_coord ==="
  local s shard_ports=() waldirs=() coord_port direct_port
  for s in 0 1 2; do
    waldirs[s]="$(mktemp -d)"
    dist_start pcdbd --port 0 --shard-id "$s" --num-shards 3 \
      --hashed Warnings --wal-dir "${waldirs[s]}"
    shard_ports[s]="$DIST_PORT"
  done
  local shard1_pid="${DIST_PIDS[1]}"
  dist_start pcdb_coord --shards \
    "127.0.0.1:${shard_ports[0]},127.0.0.1:${shard_ports[1]},127.0.0.1:${shard_ports[2]}" \
    --hashed Warnings
  coord_port="$DIST_PORT"
  # Serial reference: one plain pcdbd holding the whole database.
  dist_start pcdbd --port 0
  direct_port="$DIST_PORT"

  echo "--- identical scripted writes against both deployments"
  # Hashed-table ingests must use the retract policy in distributed
  # mode (the coordinator refuses reject-policy ones as kUnimplemented,
  # docs/DISTRIBUTED.md §5); the serial leg mirrors it for parity.
  local i row
  for i in $(seq 1 9); do
    row="D$((i % 3)),7,dw$i,dist differential"
    ./build/tools/pcdb_client --port "$coord_port" --policy retract \
      --ingest Warnings --row "$row" | grep -q 'ingested=1'
    ./build/tools/pcdb_client --port "$direct_port" --policy retract \
      --ingest Warnings --row "$row" | grep -q 'ingested=1'
  done
  ./build/tools/pcdb_client --port "$coord_port" --punctuate Warnings \
    --fields "*,47,*,*" | grep -q 'punctuations=1'
  ./build/tools/pcdb_client --port "$direct_port" --punctuate Warnings \
    --fields "*,47,*,*" | grep -q 'punctuations=1'

  echo "--- unsound distributed operations are refused, not wrong"
  # Reject-policy (default) ingest into the hashed table: the violated
  # promise may live on a different shard than the row, so the
  # coordinator must refuse rather than let the fleet store a row and
  # keep the promise it violates.
  local rc0=0
  ./build/tools/pcdb_client --port "$coord_port" --ingest Warnings \
    --row "Mon,7,rejp,probe" >/dev/null 2>&1 || rc0=$?
  if (( rc0 == 0 )); then
    echo "ERROR: reject-policy ingest into a hashed table must be refused" >&2
    exit 1
  fi
  # Aggregates over the hashed table would merge as partial per-shard
  # results; the coordinator must refuse those too.
  rc0=0
  ./build/tools/pcdb_client --port "$coord_port" \
    --sql "SELECT COUNT(*) FROM Warnings" >/dev/null 2>&1 || rc0=$?
  if (( rc0 == 0 )); then
    echo "ERROR: COUNT(*) over a hashed table must be refused" >&2
    exit 1
  fi
  # A UNION over the hashed table loses its completeness annotation (the
  # cross-block meet needs both blocks' statements on one shard).
  rc0=0
  ./build/tools/pcdb_client --port "$coord_port" \
    --sql "SELECT day FROM Warnings WHERE week=1 UNION ALL SELECT day FROM Warnings WHERE week=2" \
    >/dev/null 2>&1 || rc0=$?
  if (( rc0 == 0 )); then
    echo "ERROR: UNION over a hashed table must be refused" >&2
    exit 1
  fi

  echo "--- serial vs distributed differential (order-normalized)"
  dist_differential "$coord_port" "$direct_port"

  echo "--- duplicate retry through the coordinator applies exactly once"
  local n
  ./build/tools/pcdb_client --port "$coord_port" --writer-id 777 \
    --policy retract --ingest Warnings --row "Mon,7,dupd,once" \
    | grep -q 'duplicate=0'
  ./build/tools/pcdb_client --port "$coord_port" --writer-id 777 \
    --policy retract --ingest Warnings --row "Mon,7,dupd,once" \
    | grep -q 'duplicate=1'
  n="$(dist_answer "$coord_port" "SELECT * FROM Warnings WHERE week=7" \
    | grep -cw dupd)"
  if [[ "$n" != 1 ]]; then
    echo "ERROR: retried ingest applied $n times (want exactly 1)" >&2
    exit 1
  fi
  # Mirror once on the serial side so the differential keeps holding.
  ./build/tools/pcdb_client --port "$direct_port" --policy retract \
    --ingest Warnings --row "Mon,7,dupd,once" | grep -q 'ingested=1'

  echo "=== dist: kill -9 one shard mid-load — degrade, never lie ==="
  # Read-only burst (no --write-pct) so the fleet's contents stay equal
  # to the serial reference for the convergence differential below.
  ./build/tools/pcdb_loadgen --port "$coord_port" --connections 4 \
    --requests 4000 --no-warmup >/dev/null 2>&1 &
  local burst=$!
  sleep 0.3
  kill -9 "$shard1_pid" 2>/dev/null || true
  wait "$shard1_pid" 2>/dev/null || true
  wait "$burst" 2>/dev/null || true

  # A query over the hashed table must now refuse with Unavailable — an
  # answer computed from two of three shards would report completeness
  # over rows it never saw (docs/DISTRIBUTED.md §6).
  local out rc=0
  out="$(./build/tools/pcdb_client --port "$coord_port" \
    --sql "SELECT * FROM Warnings" 2>&1)" || rc=$?
  if (( rc == 0 )) || ! grep -qi 'unavailable' <<<"$out"; then
    echo "ERROR: hashed-table query with shard 1 dead must fail" >&2
    echo "Unavailable; got rc=$rc: $out" >&2
    exit 1
  fi
  # Writes broadcast to every shard, so they must refuse too. The pinned
  # (writer_id, seq) makes the post-recovery retry below converge.
  rc=0
  out="$(./build/tools/pcdb_client --port "$coord_port" --writer-id 888 \
    --policy retract --ingest Warnings --row "Tue,7,lostw,retry" 2>&1)" \
    || rc=$?
  if (( rc == 0 )); then
    echo "ERROR: ingest acked with shard 1 dead" >&2
    exit 1
  fi

  echo "=== dist: restart the lost shard — convergence ==="
  # Same port (the coordinator's endpoint list is fixed), same WAL dir
  # (acked rows recover).
  dist_start pcdbd --port "${shard_ports[1]}" --shard-id 1 --num-shards 3 \
    --hashed Warnings --wal-dir "${waldirs[1]}"
  local converged=0
  for i in $(seq 1 100); do
    # The coordinator closed its connections to the dead shard when
    # their calls failed and redials on the next request, so recovery
    # is visible as soon as the shard listens.
    if ./build/tools/pcdb_client --port "$coord_port" \
        --sql "SELECT * FROM Warnings" >/dev/null 2>&1; then
      converged=1
      break
    fi
    sleep 0.1
  done
  if (( converged == 0 )); then
    echo "ERROR: fleet never converged after shard restart" >&2
    exit 1
  fi
  # Retry the failed write with the same identity: already-applied
  # shards dedup, the rest apply — exactly-once despite the crash.
  ./build/tools/pcdb_client --port "$coord_port" --writer-id 888 \
    --policy retract --ingest Warnings --row "Tue,7,lostw,retry" >/dev/null
  n="$(dist_answer "$coord_port" "SELECT * FROM Warnings WHERE week=7" \
    | grep -cw lostw)"
  if [[ "$n" != 1 ]]; then
    echo "ERROR: crash-spanning retry applied $n times (want exactly 1)" >&2
    exit 1
  fi
  ./build/tools/pcdb_client --port "$direct_port" --policy retract \
    --ingest Warnings --row "Tue,7,lostw,retry" | grep -q 'ingested=1'
  dist_differential "$coord_port" "$direct_port"
  echo "dist: fleet converged; differential holds after recovery"
  dist_cleanup
  for s in 0 1 2; do rm -rf "${waldirs[s]}"; done

  local dist_out="$BENCH_DIR/dist.json"
  echo "=== dist: coordinator overhead + 3-shard scaling ($dist_out) ==="
  rm -f "$dist_out"
  local direct_bench_port coord1_port coord3_port
  # Leg 1: loadgen straight at one plain pcdbd.
  dist_start pcdbd --port 0
  direct_bench_port="$DIST_PORT"
  tools/bench_record.sh --out "$dist_out" ./build/tools/pcdb_loadgen \
    --port "$direct_bench_port" --connections 8 \
    --requests "${DIST_LOADGEN_REQUESTS:-2000}"
  # Leg 2: the same pcdbd behind a 1-shard coordinator — the delta vs
  # leg 1 is the pure front-end overhead (a plain pcdbd reports shard 0
  # of 1, so the handshake accepts it).
  dist_start pcdb_coord --shards "127.0.0.1:$direct_bench_port"
  coord1_port="$DIST_PORT"
  tools/bench_record.sh --out "$dist_out" ./build/tools/pcdb_loadgen \
    --endpoints "127.0.0.1:$coord1_port" --connections 8 \
    --requests "${DIST_LOADGEN_REQUESTS:-2000}"
  # Leg 3: a fresh 3-shard fleet (no WAL — the bench measures the read
  # path) behind a coordinator, targeted via --endpoints.
  local bench_shards=()
  for s in 0 1 2; do
    dist_start pcdbd --port 0 --shard-id "$s" --num-shards 3 \
      --hashed Warnings
    bench_shards[s]="$DIST_PORT"
  done
  dist_start pcdb_coord --shards \
    "127.0.0.1:${bench_shards[0]},127.0.0.1:${bench_shards[1]},127.0.0.1:${bench_shards[2]}" \
    --hashed Warnings
  coord3_port="$DIST_PORT"
  tools/bench_record.sh --out "$dist_out" ./build/tools/pcdb_loadgen \
    --endpoints "127.0.0.1:$coord3_port" --connections 8 \
    --requests "${DIST_LOADGEN_REQUESTS:-2000}"
  dist_cleanup

  if ! python3 - "$dist_out" <<'PY'
import json, sys
out_path = sys.argv[1]
legs = [json.loads(line) for line in open(out_path)
        if line.strip()]
direct, coord1, coord3 = legs[:3]
def pct(base, new):
    return round((new - base) / base * 100.0, 2) if base > 0 else None
summary = {
    "bench": "pr9_dist_summary",
    "commit": direct["commit"],
    "date": direct["date"],
    "workload": {"requests": direct["n"], "connections": direct["threads"],
                 "legs": ["direct pcdbd", "pcdb_coord over 1 shard",
                          "pcdb_coord over 3 shards"]},
    "coordinator_overhead_p50_pct": pct(direct["median_ms"],
                                        coord1["median_ms"]),
    "coordinator_overhead_p95_pct": pct(direct["p95_ms"], coord1["p95_ms"]),
    "three_shard_qps_ratio_vs_one": round(coord3["qps"] / coord1["qps"], 3)
        if coord1["qps"] else None,
}
with open(out_path, "a") as f:
    json.dump(summary, f)
    f.write("\n")
print(json.dumps(summary, indent=2))
# Gate: every leg completed without request or write errors; the
# latency/throughput numbers themselves are recorded, not gated
# (machine-dependent).
bad = any(l.get("errors", 0) or l.get("write_errors", 0) for l in legs)
raise SystemExit(1 if bad else 0)
PY
  then
    cat "$dist_out" >&2
    echo "ERROR: a bench leg saw request errors" >&2
    exit 1
  fi
  echo "dist OK"
}

MODE="tier1"
RUN_ASAN=0
for arg in "$@"; do
  case "$arg" in
    --asan) RUN_ASAN=1 ;;
    analyze) MODE="analyze" ;;
    fuzz) MODE="fuzz" ;;
    server) MODE="server" ;;
    faults) MODE="faults" ;;
    ingest) MODE="ingest" ;;
    crash) MODE="crash" ;;
    dist) MODE="dist" ;;
    obs) MODE="obs" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

case "$MODE" in
  tier1)
    run_tier1
    [[ "$RUN_ASAN" == 1 ]] && run_asan
    ;;
  analyze) run_analyze ;;
  fuzz) run_fuzz ;;
  server) run_server ;;
  faults) run_faults ;;
  ingest) run_ingest ;;
  crash) run_crash ;;
  dist) run_dist ;;
  obs) run_obs ;;
esac

echo "CI OK"
