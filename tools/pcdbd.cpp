// pcdbd — the pcdb query-serving daemon.
//
// Serves the paper's maintenance example database (src/workloads) over
// the wire protocol documented in docs/SERVER.md: concurrent clients,
// per-request deadlines/budgets, an answer cache, and admission control.
//
//   pcdbd [--port N] [--host H] [--eval-threads N] [--max-inflight N]
//         [--max-queue N] [--max-connections N] [--cache-mb N]
//         [--no-cache] [--rows-per-batch N] [--metrics-dump]
//         [--slow-query-ms N] [--max-pending-writes N] [--tenant-quota N]
//         [--tenant-tier NAME=N]... [--wal-dir PATH] [--no-wal]
//         [--checkpoint-interval N] [--drain-timeout-ms N]
//         [--read-quota N] [--shard-id N] [--num-shards N]
//         [--hashed T1,T2,...]
//
// --shard-id/--num-shards/--hashed run the daemon as one shard of a
// distributed fleet behind pcdb_coord (docs/DISTRIBUTED.md): the seed
// database's hashed tables are cut down to this shard's rows and
// pattern statements before serving, writes to hashed tables are
// filtered to owned rows/patterns, and SHARD_INFO reports the
// placement so the coordinator can verify its wiring.
//
// With --port 0 (the default) an ephemeral port is bound; the single
// line "pcdbd listening on HOST:PORT" on stdout announces it (tools/
// ci.sh parses that line).
//
// --wal-dir enables the durable write path (docs/DURABILITY.md): every
// acked INGEST/PUNCTUATE is fsync'd to a write-ahead log before it
// applies, and startup replays checkpoint + WAL tail, so a kill -9
// loses nothing that was acknowledged. --checkpoint-interval N
// checkpoints automatically every N applied writes (0 = only explicit
// CHECKPOINT frames and the final drain checkpoint). --no-wal forces
// the pre-durability in-memory behaviour even if a wrapper script
// passed --wal-dir earlier on the command line.
//
// SIGINT/SIGTERM drain gracefully via the self-pipe pattern: the
// handler only calls Server::RequestDrain() (async-signal-safe — an
// atomic store plus one write(2) to the event loop's wake pipe), the
// event loop stops accepting, answers everything in flight, the writer
// finishes its batch, a final checkpoint is taken (when a WAL is
// configured), and the process exits 0.
// --metrics-dump prints the final metrics/cache JSON on shutdown.
// --slow-query-ms logs any query at or over the threshold as a
// structured warn line on stderr (common/log.h). Diagnostics go to
// stderr as JSON lines; PCDB_LOG_LEVEL controls verbosity.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/log.h"
#include "dist/partition.h"
#include "obs/trace.h"
#include "server/server.h"
#include "workloads/maintenance_example.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
pcdb::Server* g_server = nullptr;

// Installed for SIGINT/SIGTERM after g_server is set. RequestDrain is
// async-signal-safe by contract (no locks, no allocation, no logging),
// so the drain path starts inside the handler instead of racing a
// process-teardown against the writer job.
void HandleSignal(int /*signum*/) {
  g_stop = 1;
  if (g_server != nullptr) g_server->RequestDrain();
}

// --flag=V or --flag V; returns true and advances *i on a match.
bool ParseUint(int argc, char** argv, int* i, const char* flag,
               uint64_t* out) {
  const char* arg = argv[*i];
  size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
    *out = std::strtoull(arg + flag_len + 1, nullptr, 10);
    return true;
  }
  if (std::strcmp(arg, flag) == 0 && *i + 1 < argc) {
    *out = std::strtoull(argv[*i + 1], nullptr, 10);
    ++*i;
    return true;
  }
  return false;
}

bool ParseString(int argc, char** argv, int* i, const char* flag,
                 std::string* out) {
  const char* arg = argv[*i];
  size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
    *out = arg + flag_len + 1;
    return true;
  }
  if (std::strcmp(arg, flag) == 0 && *i + 1 < argc) {
    *out = argv[*i + 1];
    ++*i;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  pcdb::ServerOptions options;
  bool metrics_dump = false;
  for (int i = 1; i < argc; ++i) {
    uint64_t n = 0;
    std::string s;
    if (ParseString(argc, argv, &i, "--host", &s)) {
      options.host = s;
    } else if (ParseUint(argc, argv, &i, "--port", &n)) {
      options.port = static_cast<uint16_t>(n);
    } else if (ParseUint(argc, argv, &i, "--eval-threads", &n)) {
      options.eval_threads = n;
    } else if (ParseUint(argc, argv, &i, "--max-inflight", &n)) {
      options.max_inflight = n;
    } else if (ParseUint(argc, argv, &i, "--max-queue", &n)) {
      options.max_queued_per_connection = n;
    } else if (ParseUint(argc, argv, &i, "--max-connections", &n)) {
      options.max_connections = n;
    } else if (ParseUint(argc, argv, &i, "--cache-mb", &n)) {
      options.cache.max_bytes = static_cast<size_t>(n) << 20;
    } else if (ParseUint(argc, argv, &i, "--rows-per-batch", &n)) {
      options.rows_per_batch = n;
    } else if (ParseUint(argc, argv, &i, "--slow-query-ms", &n)) {
      options.slow_query_millis = static_cast<double>(n);
    } else if (ParseUint(argc, argv, &i, "--max-pending-writes", &n)) {
      options.max_pending_writes = n;
    } else if (ParseUint(argc, argv, &i, "--tenant-quota", &n)) {
      options.tenant_write_quota = n;
    } else if (ParseUint(argc, argv, &i, "--read-quota", &n)) {
      options.tenant_read_quota = n;
    } else if (ParseUint(argc, argv, &i, "--shard-id", &n)) {
      options.shard_id = static_cast<uint32_t>(n);
    } else if (ParseUint(argc, argv, &i, "--num-shards", &n)) {
      options.num_shards = static_cast<uint32_t>(n);
    } else if (ParseString(argc, argv, &i, "--hashed", &s)) {
      pcdb::Result<std::set<std::string>> hashed = pcdb::ParseHashedSpec(s);
      if (!hashed.ok()) {
        pcdb::LogError("bad --hashed spec")
            .Str("error", hashed.status().ToString());
        return 2;
      }
      options.hashed_tables = *std::move(hashed);
    } else if (ParseString(argc, argv, &i, "--tenant-tier", &s)) {
      // NAME=N; repeatable. Unlisted tenants are tier 0.
      const size_t eq = s.rfind('=');
      if (eq == std::string::npos) {
        pcdb::LogError("--tenant-tier wants NAME=N").Str("got", s);
        return 2;
      }
      options.tenant_tiers[s.substr(0, eq)] = static_cast<uint32_t>(
          std::strtoul(s.c_str() + eq + 1, nullptr, 10));
    } else if (ParseString(argc, argv, &i, "--wal-dir", &s)) {
      options.wal_dir = s;
    } else if (ParseUint(argc, argv, &i, "--checkpoint-interval", &n)) {
      options.checkpoint_interval = n;
    } else if (ParseUint(argc, argv, &i, "--drain-timeout-ms", &n)) {
      options.drain_timeout_millis = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--no-wal") == 0) {
      options.wal_dir.clear();
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      options.enable_cache = false;
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0) {
      metrics_dump = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: pcdbd [--port N] [--host H] [--eval-threads N]\n"
          "             [--max-inflight N] [--max-queue N]\n"
          "             [--max-connections N] [--cache-mb N] [--no-cache]\n"
          "             [--rows-per-batch N] [--metrics-dump]\n"
          "             [--slow-query-ms N] [--max-pending-writes N]\n"
          "             [--tenant-quota N] [--tenant-tier NAME=N]...\n"
          "             [--wal-dir PATH] [--no-wal]\n"
          "             [--checkpoint-interval N] [--drain-timeout-ms N]\n"
          "             [--read-quota N] [--shard-id N] [--num-shards N]\n"
          "             [--hashed T1,T2,...]\n");
      return 0;
    } else {
      pcdb::LogError("unknown flag (see --help)").Str("flag", argv[i]);
      return 2;
    }
  }

  if (options.shard_id >= options.num_shards) {
    pcdb::LogError("--shard-id must be < --num-shards")
        .Unum("shard_id", options.shard_id)
        .Unum("num_shards", options.num_shards);
    return 2;
  }

  pcdb::AnnotatedDatabase adb = pcdb::MakeMaintenanceDatabase();
  if (options.num_shards > 1) {
    // Cut the seed database down to this shard's slice before serving:
    // hashed tables keep only owned rows and owned pattern statements
    // (docs/DISTRIBUTED.md); replicated tables stay whole.
    pcdb::PartitionMap map;
    map.num_shards = options.num_shards;
    map.hashed = options.hashed_tables;
    pcdb::Status cut = pcdb::PartitionDatabase(&adb, map, options.shard_id);
    if (!cut.ok()) {
      pcdb::LogError("partitioning seed database failed")
          .Str("error", cut.ToString());
      return 2;
    }
  }

  // Label this process's trace dump so tools/trace_merge.py can name
  // the row in a stitched multi-process timeline.
  pcdb::Tracer::Global().SetProcessLabel(
      options.num_shards > 1
          ? "pcdbd.shard" + std::to_string(options.shard_id)
          : "pcdbd");

  pcdb::Server server(std::move(adb), options);
  pcdb::Status started = server.Start();
  if (!started.ok()) {
    pcdb::LogError("startup failed").Str("error", started.ToString());
    return 1;
  }

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Machine-parsed announcement (ci.sh and the tests grep this exact
  // line); it stays plain stdout, not a log line.
  std::printf("pcdbd listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  pcdb::LogInfo("pcdbd started")
      .Str("host", options.host)
      .Unum("port", server.port())
      .Unum("eval_threads", options.eval_threads)
      .Float("slow_query_ms", options.slow_query_millis);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The handler already kicked RequestDrain(); Drain() waits for the
  // event loop to answer everything it owes, stops the pools, and takes
  // the final checkpoint when a WAL is configured.
  pcdb::LogInfo("shutting down (drain)");
  server.Drain();
  if (metrics_dump) {
    std::printf("%s\n", server.StatsJson().c_str());
  }
  return 0;
}
