// pcdb_coord — the distributed pcdb front end (docs/DISTRIBUTED.md).
//
// Speaks the unchanged pcdbd client protocol on one port and
// scatter-gathers queries/writes against a fleet of shard pcdbd
// processes, merging rows and re-minimizing the union of per-shard
// completeness patterns. Clients connect to it exactly as they would to
// a single pcdbd.
//
//   pcdb_coord --shards HOST:PORT,HOST:PORT,... [--port N] [--host H]
//              [--hashed T1,T2,...] [--shard-timeout-ms N]
//              [--metrics-dump]
//
// --shards lists the fleet in shard-id order; each shard must have been
// started with matching --shard-id I --num-shards N --hashed ... flags
// (the coordinator verifies the wiring over SHARD_INFO on first use and
// refuses a mismatched shard). With --port 0 (the default) an ephemeral
// port is bound; the single line "pcdb_coord listening on HOST:PORT" on
// stdout announces it (tools/ci.sh parses that line).
//
// The front end is pcdbd's (same event loop, admission control and
// limits), so SIGINT/SIGTERM drain exactly as they do for pcdbd: the
// handler only calls Coordinator::RequestDrain() (async-signal-safe),
// the loop stops accepting, answers everything admitted, and the
// process exits 0. The shards are independent processes and keep
// running.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/log.h"
#include "dist/coordinator.h"
#include "obs/trace.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
pcdb::Coordinator* g_coordinator = nullptr;

// Installed for SIGINT/SIGTERM after g_coordinator is set; RequestDrain
// is async-signal-safe by contract, as for pcdbd.
void HandleSignal(int /*signum*/) {
  g_stop = 1;
  if (g_coordinator != nullptr) g_coordinator->RequestDrain();
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
  pcdb::CoordinatorOptions options;
  bool metrics_dump = false;
  for (int i = 1; i < argc; ++i) {
    uint64_t n = 0;
    std::string s;
    if (ParseString(argc, argv, &i, "--host", &s)) {
      options.host = s;
    } else if (ParseUint(argc, argv, &i, "--port", &n)) {
      options.port = static_cast<uint16_t>(n);
    } else if (ParseString(argc, argv, &i, "--shards", &s)) {
      pcdb::Result<std::vector<pcdb::ShardEndpoint>> shards =
          pcdb::ParseEndpoints(s);
      if (!shards.ok()) {
        pcdb::LogError("bad --shards spec")
            .Str("error", shards.status().ToString());
        return 2;
      }
      options.shards = *std::move(shards);
    } else if (ParseString(argc, argv, &i, "--hashed", &s)) {
      pcdb::Result<std::set<std::string>> hashed = pcdb::ParseHashedSpec(s);
      if (!hashed.ok()) {
        pcdb::LogError("bad --hashed spec")
            .Str("error", hashed.status().ToString());
        return 2;
      }
      options.hashed_tables = *std::move(hashed);
    } else if (ParseUint(argc, argv, &i, "--shard-timeout-ms", &n)) {
      options.shard_recv_timeout_millis = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0) {
      metrics_dump = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: pcdb_coord --shards HOST:PORT,HOST:PORT,...\n"
          "                  [--port N] [--host H] [--hashed T1,T2,...]\n"
          "                  [--shard-timeout-ms N] [--metrics-dump]\n");
      return 0;
    } else {
      pcdb::LogError("unknown flag (see --help)").Str("flag", argv[i]);
      return 2;
    }
  }

  if (options.shards.empty()) {
    pcdb::LogError("--shards is required (see --help)");
    return 2;
  }

  const std::string host = options.host;
  // Label the coordinator's trace dump for tools/trace_merge.py.
  pcdb::Tracer::Global().SetProcessLabel("pcdb_coord");
  pcdb::Coordinator coord(std::move(options));
  pcdb::Status started = coord.Start();
  if (!started.ok()) {
    pcdb::LogError("startup failed").Str("error", started.ToString());
    return 1;
  }

  g_coordinator = &coord;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Machine-parsed announcement, same shape as pcdbd's (ci.sh greps it).
  std::printf("pcdb_coord listening on %s:%u\n", host.c_str(),
              static_cast<unsigned>(coord.port()));
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  pcdb::LogInfo("shutting down (drain)");
  coord.Drain();
  if (metrics_dump) {
    std::printf("%s\n", coord.metrics().ToJson().c_str());
  }
  return 0;
}
