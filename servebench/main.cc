// servebench: the pcdb serving benchmark. One invocation runs one
// workload end to end and prints its metrics; the last stdout line is a
// JSON object {"correct","attempted","failed","metrics"}.
//
//   servebench --workload dash_rw|selfjoin_cold|fleet_rw --seed N
//              --seconds S --trace 0|1 [--work-dir DIR] [--commit SHA]
//
// Phases: prepare (untimed: data, op sequence, durable state), set-up
// (timed, repeated: servers restart from that state and fill the cache),
// the measured closed loop over two connections, verification
// (untimed), and with --trace 1 an in-process replay of the same ops
// under the benchmark's spans. README.md has the metric definitions.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "pattern/annotated_eval.h"
#include "pattern/feed.h"
#include "pattern/minimize.h"
#include "relational/evaluator.h"
#include "server/answer_cache.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/planner.h"
#include "stats.h"
#include "trace.h"
#include "verify.h"
#include "workload.h"

namespace servebench {
namespace {

using pcdb::AnnotatedDatabase;
using pcdb::AnnotatedTable;
using pcdb::Client;
using pcdb::Result;
using pcdb::Status;

constexpr int kConnections = 2;
/// Set-up restarts per run; set-up metrics are their medians.
constexpr int kSetupRepeats = 5;
/// Applied writes between automatic checkpoints (several per run).
constexpr uint64_t kCheckpointInterval = 128;
/// WAL-tail records are grouped like a busy writer's batches.
constexpr size_t kTailBatch = 16;
/// Identity of the writer that produced the WAL tail.
constexpr uint64_t kTailWriterId = 0x5e7bec0ULL;
/// Threads for the (untimed) reference evaluations.
constexpr size_t kVerifyThreads = 3;
/// Self-joins re-read in the final durable-state check.
constexpr size_t kFinalSelfJoins = 8;
/// The traced replay covers this prefix of the served sequence, which
/// bounds its time (self-joins cost ~25 ms each to replay).
constexpr size_t kReplayOps = 800;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir = ".bench_build/servebench-run";
  std::string commit = "unknown";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args.seconds = 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    return Status::InvalidArgument("--workload must be dash_rw, selfjoin_cold or fleet_rw");
  }
  if (!have_seed) return Status::InvalidArgument("--seed N is required");
  if (!(args.seconds > 0)) return Status::InvalidArgument("--seconds must be > 0");
  if (!have_trace) return Status::InvalidArgument("--trace 0|1 is required");
  return args;
}

// ---------------------------------------------------------------------------
// Durable state and hosting

pcdb::WalRecord TailRecord(const Write& write, uint64_t seq) {
  pcdb::WalRecord record;
  record.writer_id = kTailWriterId;
  record.seq = seq;
  if (write.pattern.empty()) {
    pcdb::IngestRequest request;
    request.table = write.table;
    request.policy = pcdb::IngestRequest::kPolicyRetractPatterns;
    request.rows = {write.row};
    request.writer_id = kTailWriterId;
    request.seq = seq;
    record.type = pcdb::WalRecordType::kIngest;
    record.payload = pcdb::EncodeIngestPayload(request);
  } else {
    pcdb::PunctuateRequest request;
    request.table = write.table;
    request.patterns = {write.pattern};
    request.writer_id = kTailWriterId;
    request.seq = seq;
    record.type = pcdb::WalRecordType::kPunctuate;
    record.payload = pcdb::EncodePunctuatePayload(request);
  }
  return record;
}

/// A checkpoint of `db` plus the WAL tail, as a server leaves them.
Status WriteDurableState(const std::string& dir, const AnnotatedDatabase& db,
                         const std::vector<Write>& tail) {
  std::filesystem::create_directories(dir);
  PCDB_RETURN_NOT_OK(pcdb::SaveCheckpoint(dir + "/CHECKPOINT", db, 0, {}));
  PCDB_ASSIGN_OR_RETURN(std::unique_ptr<pcdb::WalWriter> wal,
                        pcdb::WalWriter::Open(dir));
  for (size_t begin = 0; begin < tail.size(); begin += kTailBatch) {
    std::vector<pcdb::WalRecord> batch;
    for (size_t i = begin; i < std::min(tail.size(), begin + kTailBatch); ++i) {
      batch.push_back(TailRecord(tail[i], i + 1));
    }
    PCDB_RETURN_NOT_OK(wal->AppendBatch(&batch));
  }
  return Status::OK();
}

Placement ServerPlacement(const WorkloadSpec& spec, size_t i) {
  Placement p;
  if (spec.fleet) {
    p.shard_id = static_cast<uint32_t>(i);
    p.num_shards = kFleetShards;
    p.hashed = {kFactTable};
  }
  return p;
}

/// Counters summed over the deployment's servers.
struct ServerCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t write_batches = 0;
  uint64_t wal_records = 0;
  uint64_t wal_fsyncs = 0;
};

/// The servers of one run: a Server, or kFleetShards shard Servers behind
/// a Coordinator, all in this process on loopback.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, std::string state_dir)
      : spec_(spec), state_dir_(std::move(state_dir)) {}
  ~Deployment() { Stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  size_t num_servers() const { return spec_.fleet ? kFleetShards : 1; }
  std::string server_dir(size_t i) const {
    return state_dir_ + "/server" + std::to_string(i);
  }

  /// Restarts every server from its durable state, then the coordinator.
  Status Start() {
    pcdb::CoordinatorOptions coptions;
    for (size_t i = 0; i < num_servers(); ++i) {
      const Placement placement = ServerPlacement(spec_, i);
      pcdb::ServerOptions options;
      options.wal_dir = server_dir(i);
      options.checkpoint_interval = kCheckpointInterval;
      options.shard_id = placement.shard_id;
      options.num_shards = placement.num_shards;
      options.hashed_tables = placement.hashed;
      servers_.push_back(
          std::make_unique<pcdb::Server>(AnnotatedDatabase{}, options));
      PCDB_RETURN_NOT_OK(servers_.back()->Start());
      coptions.shards.push_back({"127.0.0.1", servers_.back()->port()});
    }
    if (spec_.fleet) {
      coptions.hashed_tables = {kFactTable};
      coordinator_ = std::make_unique<pcdb::Coordinator>(std::move(coptions));
      PCDB_RETURN_NOT_OK(coordinator_->Start());
    }
    return Status::OK();
  }

  void Stop() {
    if (coordinator_ != nullptr) coordinator_->Stop();
    for (auto& server : servers_) server->Stop();
    coordinator_.reset();
    servers_.clear();
  }

  uint16_t front_port() const {
    return coordinator_ != nullptr ? coordinator_->port() : servers_[0]->port();
  }
  uint16_t server_port(size_t i) const { return servers_[i]->port(); }

  ServerCounters Counters() const {
    ServerCounters c;
    for (const auto& server : servers_) {
      const pcdb::AnswerCache::Stats cache = server->cache().GetStats();
      c.hits += cache.hits;
      c.misses += cache.misses;
      c.evictions += cache.evictions;
      c.invalidations += cache.invalidations + cache.sig_invalidations;
      pcdb::MetricsRegistry& m = server->metrics();
      c.write_batches += m.CounterValue(pcdb::kMetricWriteBatches);
      c.wal_records += m.CounterValue(pcdb::kMetricWalRecordsTotal);
      c.wal_fsyncs += m.CounterValue(pcdb::kMetricWalFsyncsTotal);
    }
    return c;
  }

 private:
  const WorkloadSpec& spec_;
  std::string state_dir_;
  std::vector<std::unique_ptr<pcdb::Server>> servers_;
  std::unique_ptr<pcdb::Coordinator> coordinator_;
};

Result<Client> Connect(uint16_t port) {
  return Client::Connect("127.0.0.1", port);
}

/// Sends one op and times it from send to the last answer frame / ack.
OpRecord SendOp(Client* client, const Workload& w, uint32_t seq, uint8_t conn,
                bool digest_answer) {
  const Op& op = w.ops[seq];
  OpRecord r;
  r.seq = seq;
  r.kind = op.kind;
  r.conn = conn;
  pcdb::ClientWriteOptions wopts;
  wopts.policy = pcdb::IngestRequest::kPolicyRetractPatterns;
  r.start_s = WallSeconds();
  if (op.kind == OpKind::kRead) {
    Result<pcdb::ClientAnswer> answer = client->Query(w.queries[op.index]);
    r.end_s = WallSeconds();
    r.ok = answer.ok();
    if (r.ok) {
      r.cache_hit = answer->done.cache_hit;
      if (digest_answer) r.answer_hash = AnswerDigest(answer->table);
    }
  } else {
    const Write& write = w.writes[op.index];
    Result<pcdb::IngestResult> ack =
        op.kind == OpKind::kIngest
            ? client->Ingest(write.table, {write.row}, wopts)
            : client->Punctuate(write.table, {write.pattern}, wopts);
    r.end_s = WallSeconds();
    r.ok = ack.ok();
  }
  return r;
}

/// The measured closed loop: each connection sends the next op of the
/// shared sequence only after its previous answer or ack arrived.
struct Measured {
  std::vector<OpRecord> records;
  double start_s = 0;
  CpuTicks ticks_begin;
  CpuTicks ticks_end;
  ServerCounters before;
  ServerCounters after;
  double peak_rss_mb = 0;
};

Status Measure(const Workload& w, const Deployment& d, double seconds,
               Measured* out) {
  std::vector<Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    PCDB_ASSIGN_OR_RETURN(Client client, Connect(d.front_port()));
    clients.push_back(std::move(client));
  }
  // Self-join answers are verified afterwards against their digests.
  const bool digest_answers = w.spec->selfjoin;
  std::vector<std::vector<OpRecord>> per_conn(kConnections);
  std::atomic<size_t> next{0};
  out->before = d.Counters();
  out->ticks_begin = ReadCpuTicks();
  out->start_s = WallSeconds();
  const double deadline = out->start_s + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      while (WallSeconds() < deadline) {
        const size_t seq = next.fetch_add(1);
        if (seq >= w.ops.size()) break;
        per_conn[c].push_back(SendOp(&clients[c], w, static_cast<uint32_t>(seq),
                                     static_cast<uint8_t>(c), digest_answers));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out->ticks_end = ReadCpuTicks();
  out->after = d.Counters();
  out->peak_rss_mb = PeakRssMb();
  for (auto& records : per_conn) {
    out->records.insert(out->records.end(), records.begin(), records.end());
  }
  std::sort(out->records.begin(), out->records.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.seq < b.seq; });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Verification

/// Ops the benchmark sent outside the measured phase, and how many failed.
struct CheckTally {
  size_t attempted = 0;
  size_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Reference digests of `queries` over `db`, computed on kVerifyThreads
/// threads. `max_intermediate`, when given, receives each query's largest
/// intermediate pattern set (AnnotatedEvalInfo). A failed reference
/// evaluation yields digest 0, which no served answer matches.
std::vector<uint64_t> ReferenceDigests(const std::vector<std::string>& queries,
                                       const AnnotatedDatabase& db,
                                       std::vector<double>* max_intermediate) {
  std::vector<uint64_t> digests(queries.size(), 0);
  if (max_intermediate != nullptr) max_intermediate->assign(queries.size(), 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kVerifyThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < queries.size(); i = next.fetch_add(1)) {
        pcdb::AnnotatedEvalInfo info;
        Result<AnnotatedTable> answer = ReferenceAnswer(queries[i], db, &info);
        if (!answer.ok()) continue;
        digests[i] = AnswerDigest(*answer);
        if (max_intermediate != nullptr) {
          (*max_intermediate)[i] = static_cast<double>(info.max_intermediate_patterns);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return digests;
}

/// After the measured phase, with writes stopped, reads each of
/// `queries` twice through the front end and compares both answers with
/// a reference rebuilt from the servers' own checkpoints and WALs:
///  - a fresh read (a never-binding memory budget gives it a cache key of
///    its own, so the servers evaluate it now) must equal the reference;
///  - the read as clients send it may be a cache hit. The cache keeps
///    entries across pattern additions under incomparable signatures
///    (docs/SERVER.md), so its rows must equal the reference and its
///    patterns must claim no completeness the reference lacks; how many
///    such answers promise less than the reference is reported.
/// On a fleet, the served answer must also equal the merge of the
/// shards' direct answers.
Status FinalCheck(const WorkloadSpec& spec, const Deployment& d,
                  const std::vector<std::string>& queries, CheckTally* tally,
                  size_t* under_reported) {
  std::vector<AnnotatedDatabase> rebuilt;
  for (size_t i = 0; i < d.num_servers(); ++i) {
    PCDB_ASSIGN_OR_RETURN(AnnotatedDatabase db,
                          RebuildFromDurableState(d.server_dir(i),
                                                  ServerPlacement(spec, i)));
    rebuilt.push_back(std::move(db));
  }
  PCDB_ASSIGN_OR_RETURN(Client front, Connect(d.front_port()));
  std::vector<Client> direct;
  if (spec.fleet) {
    for (size_t i = 0; i < d.num_servers(); ++i) {
      PCDB_ASSIGN_OR_RETURN(Client client, Connect(d.server_port(i)));
      direct.push_back(std::move(client));
    }
  }
  pcdb::ClientQueryOptions fresh_options;
  fresh_options.max_memory_bytes = uint64_t{1} << 62;
  for (const std::string& sql : queries) {
    std::vector<AnnotatedTable> parts;
    bool reference_ok = true;
    for (const AnnotatedDatabase& db : rebuilt) {
      Result<AnnotatedTable> part = ReferenceAnswer(sql, db);
      reference_ok = reference_ok && part.ok();
      if (part.ok()) parts.push_back(std::move(*part));
    }
    const AnnotatedTable want =
        !reference_ok ? AnnotatedTable{}
                      : (spec.fleet ? MergeShardAnswers(parts) : parts[0]);

    Result<pcdb::ClientAnswer> fresh = front.Query(sql, fresh_options);
    const bool fresh_ok = reference_ok && fresh.ok() &&
                          AnswerDigest(fresh->table) == AnswerDigest(want);
    tally->Add(fresh_ok);

    Result<pcdb::ClientAnswer> served = front.Query(sql);
    bool served_ok = reference_ok && served.ok() &&
                     RowsDigest(served->table.data) == RowsDigest(want.data) &&
                     served->table.degraded == want.degraded &&
                     PatternsSound(served->table.patterns, want.patterns);
    if (served_ok && AnswerDigest(served->table) != AnswerDigest(want)) {
      ++*under_reported;
    }
    if (served_ok && spec.fleet) {
      std::vector<AnnotatedTable> legs;
      for (Client& client : direct) {
        Result<pcdb::ClientAnswer> leg = client.Query(sql);
        served_ok = served_ok && leg.ok();
        if (leg.ok()) legs.push_back(std::move(leg->table));
      }
      served_ok = served_ok && AnswerDigest(MergeShardAnswers(legs)) ==
                                   AnswerDigest(served->table);
    }
    tally->Add(served_ok);
    if (!fresh_ok || !served_ok) {
      std::fprintf(stderr, "servebench: final check mismatch (%s read): %s\n",
                   fresh_ok ? "served" : "fresh", sql.c_str());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traced replay

/// Replays the served op sequence single-threaded and in-process against
/// a local copy of the post-set-up database, under the benchmark's spans.
class Replayer {
 public:
  Replayer(const Workload& w, SpanRecorder* rec, std::string scratch_dir)
      : w_(w), rec_(rec), scratch_dir_(std::move(scratch_dir)) {}

  /// Loads the set-up state three times (LoadCheckpoint + ReplayWal),
  /// keeping the last copy as the replay's database.
  Status Recover(const std::string& reference_dir) {
    for (int i = 0; i < 3; ++i) {
      SpanRecorder::Scope span(rec_, "durability.recovery");
      PCDB_ASSIGN_OR_RETURN(db_, RebuildFromDurableState(reference_dir, Placement{}));
    }
    std::filesystem::create_directories(scratch_dir_ + "/wal");
    PCDB_ASSIGN_OR_RETURN(wal_, pcdb::WalWriter::Open(scratch_dir_ + "/wal"));
    return Status::OK();
  }

  /// On fleet_rw: clients for the direct shard legs and the coordinator.
  Status ConnectFleet(const Deployment& d) {
    for (size_t i = 0; i < d.num_servers(); ++i) {
      PCDB_ASSIGN_OR_RETURN(Client client, Connect(d.server_port(i)));
      shards_.push_back(std::move(client));
    }
    PCDB_ASSIGN_OR_RETURN(Client front, Connect(d.front_port()));
    coordinator_ = std::move(front);
    return Status::OK();
  }

  /// Replays one served op. Returns the in-process layer time of a read
  /// (the spans server.frontend_us is the remainder of).
  Result<double> Replay(const OpRecord& served, double max_intermediate) {
    const servebench::Op& op = w_.ops[served.seq];
    if (op.kind == OpKind::kRead) return Read(served, op.index, max_intermediate);
    PCDB_RETURN_NOT_OK(WriteOp(op));
    return 0.0;
  }

  /// A final checkpoint when the cadence never reached one.
  Status Finish() {
    if (writes_ == 0 || checkpoints_ > 0) return Status::OK();
    return Checkpoint();
  }

 private:
  Result<double> Read(const OpRecord& served, uint32_t query,
                      double max_intermediate) {
    const std::string& sql = w_.queries[query];
    // Hits decode the answer the last miss of this query encoded; one
    // the replay has not encoded yet is built before the op's span.
    if (served.cache_hit && encoded_.count(query) == 0) {
      PCDB_ASSIGN_OR_RETURN(AnnotatedTable answer, ReferenceAnswer(sql, db_));
      encoded_[query] = pcdb::EncodeAnswer(answer, rows_per_batch_);
    }
    SpanRecorder::Scope op_span(rec_, "op.read");
    op_span.Arg("op", served.seq);
    op_span.Arg("query", query);
    op_span.Arg("cache_hit", served.cache_hit ? 1 : 0);
    const double layers_start = WallSeconds();
    pcdb::ExprPtr plan;
    {
      SpanRecorder::Scope span(rec_, "sql.plan");
      PCDB_ASSIGN_OR_RETURN(plan, pcdb::PlanSql(sql, db_.database()));
    }
    {
      SpanRecorder::Scope span(rec_, "server.cache_key");
      const std::map<std::string, uint64_t> masks =
          pcdb::AnswerCache::QueryConstantMasks(*plan, db_.database());
      std::vector<pcdb::AnswerCache::TableDep> deps;
      for (const std::string& t : plan->ScannedTables()) {
        pcdb::AnswerCache::TableDep dep;
        dep.table = t;
        dep.epoch = db_.database().TableEpoch(t);
        auto it = masks.find(t);
        if (it != masks.end()) dep.query_mask = it->second;
        dep.sig_fold = pcdb::AnswerCache::FoldSignatureEpochs(
            dep.query_mask, db_.PatternSigEpochs(t));
        deps.push_back(std::move(dep));
      }
      const std::string key = pcdb::AnswerCache::MakeKey(
          pcdb::AnswerCache::NormalizeSql(sql), 0, 0, 0, 0, deps);
      span.Arg("key_bytes", static_cast<double>(key.size()));
    }
    if (!served.cache_hit) {
      AnnotatedTable answer;
      {
        SpanRecorder::Scope span(rec_, "relational.eval");
        PCDB_ASSIGN_OR_RETURN(answer.data, pcdb::Evaluate(*plan, db_.database()));
        span.Arg("rows_out", static_cast<double>(answer.data.num_rows()));
      }
      {
        SpanRecorder::Scope span(rec_, "pattern.reason");
        const uint64_t probes = pcdb::EngineMetrics().subsumption_probes->Value();
        PCDB_ASSIGN_OR_RETURN(answer.patterns,
                              pcdb::ComputeQueryPatterns(*plan, db_));
        span.Arg("patterns_out", static_cast<double>(answer.patterns.size()));
        span.Arg("max_intermediate", max_intermediate);
        span.Arg("subsumption_probes",
                 static_cast<double>(
                     pcdb::EngineMetrics().subsumption_probes->Value() - probes));
      }
      {
        SpanRecorder::Scope span(rec_, "server.encode");
        encoded_[query] = pcdb::EncodeAnswer(answer, rows_per_batch_);
      }
    }
    {
      SpanRecorder::Scope span(rec_, "server.decode");
      const pcdb::EncodedAnswer& encoded = encoded_[query];
      Result<AnnotatedTable> decoded = pcdb::DecodeAnswer(encoded);
      if (!decoded.ok()) return decoded.status();
      span.Arg("answer_kb", static_cast<double>(encoded.TotalBytes()) / 1024.0);
    }
    const double layers_us = (WallSeconds() - layers_start) * 1e6;
    if (!shards_.empty()) PCDB_RETURN_NOT_OK(FleetLegs(sql, served));
    return layers_us;
  }

  /// The same read sent directly to each shard and through the
  /// coordinator, and the coordinator's merge-minimize recomputed. A read
  /// the fleet served from its caches is re-read as is. One it evaluated
  /// is re-read with a never-binding memory budget unique to the op and
  /// the path (cache keys no earlier read used), so the shards evaluate
  /// it again for the direct legs and again for the coordinator.
  Status FleetLegs(const std::string& sql, const OpRecord& served) {
    pcdb::ClientQueryOptions direct_options;
    pcdb::ClientQueryOptions coord_options;
    if (!served.cache_hit) {
      const uint64_t base = (uint64_t{1} << 62) + 2 * (uint64_t{served.seq} + 1);
      direct_options.max_memory_bytes = base;
      coord_options.max_memory_bytes = base + 1;
    }
    pcdb::PatternSet unioned;
    double slowest_us = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      SpanRecorder::Scope span(rec_, "dist.shard_read");
      span.Arg("shard", static_cast<double>(i));
      const double start = WallSeconds();
      PCDB_ASSIGN_OR_RETURN(pcdb::ClientAnswer answer,
                            shards_[i].Query(sql, direct_options));
      slowest_us = std::max(slowest_us, (WallSeconds() - start) * 1e6);
      for (const pcdb::Pattern& p : answer.table.patterns) unioned.Add(p);
    }
    {
      SpanRecorder::Scope span(rec_, "dist.coord_read");
      PCDB_ASSIGN_OR_RETURN(pcdb::ClientAnswer answer,
                            coordinator_.Query(sql, coord_options));
      span.Arg("slowest_leg_us", slowest_us);
    }
    SpanRecorder::Scope span(rec_, "dist.merge_minimize");
    const pcdb::PatternSet minimal = pcdb::Minimize(unioned);
    span.Arg("patterns_in", static_cast<double>(unioned.size()));
    span.Arg("patterns_out", static_cast<double>(minimal.size()));
    return Status::OK();
  }

  Status WriteOp(const servebench::Op& op) {
    const Write& write = w_.writes[op.index];
    SpanRecorder::Scope op_span(
        rec_, op.kind == OpKind::kIngest ? "op.ingest" : "op.punctuate");
    AnnotatedDatabase next;
    {
      SpanRecorder::Scope span(rec_, "server.snapshot_copy");
      next = db_;
    }
    {
      SpanRecorder::Scope span(rec_, "pattern.feed_apply");
      pcdb::FeedManager feed(&next, pcdb::FeedViolationPolicy::kRetractPatterns);
      if (op.kind == OpKind::kIngest) {
        PCDB_RETURN_NOT_OK(feed.Ingest(write.table, write.row));
      } else {
        PCDB_RETURN_NOT_OK(feed.Punctuate(write.table, write.pattern));
      }
      span.Arg("patterns_retracted",
               static_cast<double>(feed.stats().patterns_retracted));
    }
    {
      SpanRecorder::Scope span(rec_, "durability.wal_append");
      std::vector<pcdb::WalRecord> batch = {TailRecord(write, ++writes_)};
      PCDB_RETURN_NOT_OK(wal_->AppendBatch(&batch));
    }
    db_ = std::move(next);
    if (writes_ % kCheckpointInterval == 0) PCDB_RETURN_NOT_OK(Checkpoint());
    return Status::OK();
  }

  Status Checkpoint() {
    SpanRecorder::Scope span(rec_, "durability.checkpoint");
    ++checkpoints_;
    return pcdb::SaveCheckpoint(scratch_dir_ + "/CHECKPOINT", db_,
                                wal_->next_lsn() - 1, {});
  }

  const Workload& w_;
  SpanRecorder* rec_;
  std::string scratch_dir_;
  /// Rows per ANSWER_ROWS frame, as the servers encode them.
  const size_t rows_per_batch_ = pcdb::ServerOptions{}.rows_per_batch;
  AnnotatedDatabase db_;
  std::unique_ptr<pcdb::WalWriter> wal_;
  std::map<uint32_t, pcdb::EncodedAnswer> encoded_;
  std::vector<Client> shards_;
  Client coordinator_;
  uint64_t writes_ = 0;
  uint64_t checkpoints_ = 0;
};

/// Mean self time (and mean args) per span name.
struct SpanAggregate {
  size_t count = 0;
  double self_us = 0;
  std::map<std::string, double> args;

  double MeanSelf() const { return count == 0 ? 0 : self_us / count; }
  double MeanArg(const std::string& key) const {
    auto it = args.find(key);
    return count == 0 || it == args.end() ? 0 : it->second / count;
  }
};

std::map<std::string, SpanAggregate> AggregateSpans(const SpanRecorder& rec) {
  std::map<std::string, SpanAggregate> out;
  const std::vector<double> self = rec.SelfTimesUs();
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& span = rec.spans()[i];
    SpanAggregate& agg = out[span.name];
    ++agg.count;
    agg.self_us += self[i];
    for (const auto& [key, value] : span.args) agg.args[key] += value;
  }
  return out;
}

double Ratio(double num, double den) { return den <= 0 ? 0 : num / den; }

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<std::pair<std::string, double>> LayerValues(
    const std::map<std::string, SpanAggregate>& spans, const Measured& m,
    double frontend_us) {
  auto agg = [&](const char* name) -> SpanAggregate {
    auto it = spans.find(name);
    return it == spans.end() ? SpanAggregate{} : it->second;
  };
  const ServerCounters& a = m.after;
  const ServerCounters& b = m.before;
  const double records = static_cast<double>(a.wal_records - b.wal_records);
  // One dist.coord_read per replayed fleet read, carrying its slowest
  // direct leg.
  const SpanAggregate coord = agg("dist.coord_read");
  const double slowest_leg = coord.MeanArg("slowest_leg_us");
  return {
      {"sql.plan_us", agg("sql.plan").MeanSelf()},
      {"relational.eval_us", agg("relational.eval").MeanSelf()},
      {"relational.rows_out", agg("relational.eval").MeanArg("rows_out")},
      {"pattern.reason_us", agg("pattern.reason").MeanSelf()},
      {"pattern.patterns_out", agg("pattern.reason").MeanArg("patterns_out")},
      {"pattern.max_intermediate", agg("pattern.reason").MeanArg("max_intermediate")},
      {"pattern.subsumption_probes",
       agg("pattern.reason").MeanArg("subsumption_probes")},
      {"pattern.feed_apply_us", agg("pattern.feed_apply").MeanSelf()},
      {"server.cache_key_us", agg("server.cache_key").MeanSelf()},
      {"server.cache_hit_ratio",
       Ratio(static_cast<double>(a.hits - b.hits),
             static_cast<double>(a.hits - b.hits + a.misses - b.misses))},
      {"server.invalidations_per_write",
       Ratio(static_cast<double>(a.invalidations - b.invalidations), records)},
      {"server.evictions", static_cast<double>(a.evictions - b.evictions)},
      {"server.snapshot_copy_us", agg("server.snapshot_copy").MeanSelf()},
      {"server.encode_us", agg("server.encode").MeanSelf()},
      {"server.decode_us", agg("server.decode").MeanSelf()},
      {"server.answer_kb", agg("server.decode").MeanArg("answer_kb")},
      {"server.frontend_us", frontend_us},
      {"server.ops_per_write_batch",
       Ratio(records, static_cast<double>(a.write_batches - b.write_batches))},
      {"durability.wal_append_us", agg("durability.wal_append").MeanSelf()},
      {"durability.records_per_fsync",
       Ratio(records, static_cast<double>(a.wal_fsyncs - b.wal_fsyncs))},
      {"durability.checkpoint_ms", agg("durability.checkpoint").MeanSelf() / 1000.0},
      {"durability.recovery_ms", agg("durability.recovery").MeanSelf() / 1000.0},
      {"dist.shard_read_us", slowest_leg},
      {"dist.coord_overhead_us", coord.MeanSelf() - slowest_leg},
      {"dist.merge_minimize_us", agg("dist.merge_minimize").MeanSelf()},
  };
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

std::string UnitOf(const std::string& layer_metric) {
  const auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return layer_metric.size() >= n &&
           layer_metric.compare(layer_metric.size() - n, n, suffix) == 0;
  };
  if (ends_with("_us")) return "us";
  if (ends_with("_ms")) return "ms";
  if (ends_with("_kb")) return "kB";
  if (ends_with("_ratio")) return "ratio";
  return "count";
}

/// Where an untraced run leaves its end-to-end metrics for the traced
/// run of the same workload, seed and length to print beside its own.
std::string UntracedRecordPath(const Args& args) {
  return args.work_dir + "/results/" + args.workload + "-seed" +
         std::to_string(args.seed) + "-s" + FormatNumber(args.seconds) + ".txt";
}

void SaveUntraced(const Args& args, const std::vector<Metric>& metrics) {
  std::filesystem::create_directories(args.work_dir + "/results");
  std::ofstream out(UntracedRecordPath(args), std::ios::trunc);
  for (const Metric& m : metrics) out << m.name << ' ' << FormatNumber(m.value) << '\n';
}

std::map<std::string, double> LoadUntraced(const Args& args) {
  std::map<std::string, double> out;
  std::ifstream in(UntracedRecordPath(args));
  std::string name;
  double value = 0;
  while (in >> name >> value) out[name] = value;
  return out;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------

/// One run, keeping its durable state under `state_dir`. Returns the
/// process exit code.
int RunWorkload(const Args& args, const std::string& state_dir) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const std::string reference_dir = state_dir + "/reference";

  std::optional<Workload> workload;
  std::unique_ptr<Deployment> deployment;
  // Warm-up answer digests of every set-up repeat, by query id.
  std::vector<std::vector<uint64_t>> warmups;
  CheckTally warmup_tally;
  Measured measured;

  Phases phases;
  phases.setup_repeats = kSetupRepeats;
  phases.prepare = [&]() -> Status {
    const BaseData base = MakeBaseData();
    workload.emplace(MakeWorkload(spec, args.seed, args.seconds, base));
    PCDB_RETURN_NOT_OK(WriteDurableState(reference_dir, base.db, workload->wal_tail));
    for (size_t i = 0; i < (spec.fleet ? kFleetShards : 1); ++i) {
      AnnotatedDatabase db = base.db;
      if (spec.fleet) {
        pcdb::PartitionMap map;
        map.num_shards = kFleetShards;
        map.hashed = {kFactTable};
        PCDB_RETURN_NOT_OK(pcdb::PartitionDatabase(&db, map, static_cast<uint32_t>(i)));
      }
      PCDB_RETURN_NOT_OK(WriteDurableState(state_dir + "/server" + std::to_string(i),
                                           db, workload->wal_tail));
    }
    return Status::OK();
  };
  phases.restart = [&]() -> Status {
    deployment = std::make_unique<Deployment>(spec, state_dir);
    PCDB_RETURN_NOT_OK(deployment->Start());
    if (spec.selfjoin) return Status::OK();
    // Fill the cache: one read of each distinct query.
    PCDB_ASSIGN_OR_RETURN(Client client, Connect(deployment->front_port()));
    std::vector<uint64_t>& digests = warmups.emplace_back();
    for (const std::string& sql : workload->queries) {
      Result<pcdb::ClientAnswer> answer = client.Query(sql);
      digests.push_back(answer.ok() ? AnswerDigest(answer->table) : 0);
    }
    return Status::OK();
  };
  phases.teardown = [&] { deployment.reset(); };
  phases.measure = [&]() -> Status {
    return Measure(*workload, *deployment, args.seconds, &measured);
  };

  Result<PhaseTimes> times = RunPhases(phases);
  if (!times.ok()) {
    std::fprintf(stderr, "servebench: %s\n", times.status().ToString().c_str());
    return 1;
  }
  const Workload& w = *workload;

  // --- Verification (untimed) --------------------------------------------
  Result<AnnotatedDatabase> reference = RebuildFromDurableState(reference_dir, Placement{});
  if (!reference.ok()) {
    std::fprintf(stderr, "servebench: %s\n", reference.status().ToString().c_str());
    return 1;
  }
  // Largest intermediate pattern set per query id, for the traced replay.
  std::vector<double> max_intermediate(w.queries.size(), 0);
  if (!spec.selfjoin) {
    const std::vector<uint64_t> want = ReferenceDigests(w.queries, *reference, &max_intermediate);
    for (const std::vector<uint64_t>& got : warmups) {
      for (size_t q = 0; q < got.size(); ++q) warmup_tally.Add(want[q] != 0 && got[q] == want[q]);
    }
  } else {
    // Every served self-join, against the (static) post-set-up state.
    std::vector<std::string> served_sql;
    std::vector<size_t> served_index;
    for (size_t i = 0; i < measured.records.size(); ++i) {
      const OpRecord& r = measured.records[i];
      if (r.kind == OpKind::kRead && r.ok) {
        served_sql.push_back(w.queries[w.ops[r.seq].index]);
        served_index.push_back(i);
      }
    }
    std::vector<double> served_max;
    const std::vector<uint64_t> want = ReferenceDigests(served_sql, *reference, &served_max);
    for (size_t k = 0; k < served_index.size(); ++k) {
      OpRecord& r = measured.records[served_index[k]];
      max_intermediate[w.ops[r.seq].index] = served_max[k];
      if (want[k] == 0 || r.answer_hash != want[k]) {
        std::fprintf(stderr, "servebench: wrong answer: %s\n", served_sql[k].c_str());
        r.ok = false;
      }
    }
  }
  std::vector<std::string> final_queries = w.queries;
  if (spec.selfjoin) {
    final_queries.resize(std::min(kFinalSelfJoins, final_queries.size()));
    final_queries.push_back(std::string("SELECT * FROM ") + kStatusTable);
  }
  CheckTally final_tally;
  size_t under_reported = 0;
  Status final_status =
      FinalCheck(spec, *deployment, final_queries, &final_tally, &under_reported);
  if (!final_status.ok()) {
    std::fprintf(stderr, "servebench: final check: %s\n", final_status.ToString().c_str());
    return 1;
  }

  Result<PhaseSummary> summary = Summarize(measured.records, times->measured);
  if (!summary.ok()) {
    std::fprintf(stderr, "servebench: %s\n", summary.status().ToString().c_str());
    return 1;
  }
  const PhaseSummary& s = *summary;
  const std::vector<Metric> end_to_end = {
      {"setup_s", times->setup.wall_s, "s"},
      {"setup_cpu_s", times->setup.cpu_s, "s"},
      {"read_p50_ms", s.read_p50_ms, "ms"},
      {"read_p95_ms", s.read_p95_ms, "ms"},
      {"read_qps", s.read_qps, "1/s"},
      {"write_p95_ms", s.write_p95_ms, "ms"},
      {"cpu_ms_per_op", s.cpu_ms_per_op, "ms"},
      {"peak_rss_mb", measured.peak_rss_mb, "MB"},
  };

  // --- Report --------------------------------------------------------------
  std::printf("servebench workload=%s seed=%" PRIu64 " seconds=%s trace=%d\n",
              spec.name.c_str(), args.seed, FormatNumber(args.seconds).c_str(),
              args.trace ? 1 : 0);
  std::printf("context nproc=%u compiler=\"%s\" build_type=%s commit=%s seed=%" PRIu64
              " steal_share=%.4f op_digest=%s\n",
              std::thread::hardware_concurrency(), SERVEBENCH_COMPILER,
              SERVEBENCH_BUILD_TYPE, args.commit.c_str(), args.seed,
              StealShare(measured.ticks_begin, measured.ticks_end),
              Hex(OpDigest(w)).c_str());
  std::printf("setup repeats:");
  for (const Interval& i : times->setups) std::printf(" %.4fs/%.4fs", i.wall_s, i.cpu_s);
  std::printf(" (wall/cpu)\n");
  std::printf("ops: measured attempted=%zu failed=%zu (reads=%zu writes=%zu in %.3fs); "
              "warm-up attempted=%zu failed=%zu; final check attempted=%zu failed=%zu "
              "(cached answers promising less than the reference: %zu)\n",
              s.attempted, s.failed, s.reads, s.writes, times->measured.wall_s,
              warmup_tally.attempted, warmup_tally.failed, final_tally.attempted,
              final_tally.failed, under_reported);
  // Not a metric: the WAL fsync under it flips between ~0.07 and ~0.8 ms
  // with the host's I/O state (README.md, "Run context and noise").
  std::printf("write p50 %.4f ms (context only)\n", s.write_p50_ms);
  const std::map<std::string, double> untraced =
      args.trace ? LoadUntraced(args) : std::map<std::string, double>{};
  for (const Metric& m : end_to_end) {
    std::printf("  %-14s %14.4f %-4s", m.name.c_str(), m.value, m.unit.c_str());
    auto it = untraced.find(m.name);
    if (it != untraced.end()) {
      std::printf("  untraced %12.4f  overhead %+8.2f%%", it->second,
                  it->second == 0 ? 0 : (m.value - it->second) / it->second * 100);
    }
    std::printf("\n");
  }
  if (args.trace && untraced.empty()) {
    std::printf("  (no untraced run of this workload, seed and length to compare with; "
                "run --trace 0 first)\n");
  }
  if (!args.trace) SaveUntraced(args, end_to_end);

  const size_t attempted = s.attempted + warmup_tally.attempted + final_tally.attempted;
  const size_t failed = s.failed + warmup_tally.failed + final_tally.failed;
  std::vector<Metric> printed = end_to_end;

  if (args.trace) {
    // --- Traced replay, after the served phase ---------------------------
    SpanRecorder rec(measured.start_s);
    for (const OpRecord& r : measured.records) {
      static const char* const kNames[] = {"client.read", "client.ingest",
                                           "client.punctuate"};
      rec.AddInterval(kNames[static_cast<int>(r.kind)], r.conn + 1u, r.start_s,
                      r.end_s,
                      {{"op", r.seq},
                       {"query", r.kind == OpKind::kRead ? w.ops[r.seq].index : 0},
                       {"cache_hit", r.cache_hit ? 1 : 0},
                       {"ok", r.ok ? 1 : 0}});
    }
    Replayer replayer(w, &rec, state_dir + "/replay");
    Status st = replayer.Recover(reference_dir);
    if (st.ok() && spec.fleet) st = replayer.ConnectFleet(*deployment);
    double frontend_sum = 0;
    size_t frontend_n = 0;
    for (const OpRecord& r : measured.records) {
      if (!st.ok() || r.seq >= kReplayOps) break;
      if (!r.ok) continue;
      const double mi = r.kind == OpKind::kRead ? max_intermediate[w.ops[r.seq].index] : 0;
      Result<double> layers_us = replayer.Replay(r, mi);
      if (!layers_us.ok()) {
        st = layers_us.status();
        break;
      }
      // On a fleet the replayed layers run over the whole table while the
      // shards ran over slices in parallel, so the remainder is no
      // front-end time there.
      if (r.kind == OpKind::kRead && !spec.fleet) {
        frontend_sum += r.millis() * 1000.0 - *layers_us;
        ++frontend_n;
      }
    }
    if (st.ok()) st = replayer.Finish();
    if (!st.ok()) {
      std::fprintf(stderr, "servebench: replay: %s\n", st.ToString().c_str());
      return 1;
    }
    const std::map<std::string, SpanAggregate> spans = AggregateSpans(rec);
    printed.clear();
    std::printf("per-layer (replay of the first %zu ops; mean self time per call):\n",
                std::min(kReplayOps, measured.records.size()));
    for (const auto& [name, value] :
         LayerValues(spans, measured, Ratio(frontend_sum, frontend_n))) {
      printed.push_back({name, value, UnitOf(name)});
      if (!spec.fleet && name.rfind("dist.", 0) == 0) {
        std::printf("  %-30s %14s (no coordinator; reported as 0)\n", name.c_str(), "n/a");
      } else if (spec.fleet && name == "server.frontend_us") {
        std::printf("  %-30s %14s (replay is single-node; reported as 0)\n", name.c_str(),
                    "n/a");
      } else {
        std::printf("  %-30s %14.4f %s\n", name.c_str(), value, UnitOf(name).c_str());
      }
    }
    std::filesystem::create_directories(args.work_dir + "/traces");
    const std::string trace_path = args.work_dir + "/traces/" + spec.name + "-seed" +
                                   std::to_string(args.seed) + ".json";
    st = rec.WriteChromeJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "servebench: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), rec.spans().size());
  }

  deployment.reset();
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed, printed).c_str());
  return 0;
}

int Run(const Args& args) {
  pcdb::SetMinLogLevel(pcdb::LogLevel::kWarn);
  const std::string state_dir =
      args.work_dir + "/state-" + std::to_string(::getpid());
  std::filesystem::remove_all(state_dir);
  const int code = RunWorkload(args, state_dir);
  std::filesystem::remove_all(state_dir);
  return code;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  pcdb::Result<servebench::Args> args = servebench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "servebench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return servebench::Run(*args);
}
