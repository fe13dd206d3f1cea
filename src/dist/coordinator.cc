#include "dist/coordinator.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/json.h"
#include "common/log.h"
#include "common/timer.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "pattern/minimize.h"

namespace pcdb {

namespace {

/// Transport-class failures a retry against a healthy fleet could fix:
/// the shard is down, unreachable, hung, or its connection died
/// mid-request. Evaluation verdicts (parse errors, kCancelled, budget
/// trips) are NOT transport failures and pass through untouched.
bool IsShardTransportFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kTimeout:
      return true;
    case StatusCode::kInternal:
      return status.message().rfind("recv failed:", 0) == 0 ||
             status.message().rfind("send failed:", 0) == 0 ||
             status.message().rfind("connect", 0) == 0;
    default:
      return false;
  }
}

/// Rows per ANSWER_ROWS frame when re-framing merged answers: pcdbd's
/// default, so a forwarded answer frames exactly as the shard's did.
const size_t kRowsPerBatch = ServerOptions{}.rows_per_batch;

}  // namespace

Result<std::vector<ShardEndpoint>> ParseEndpoints(const std::string& spec) {
  std::vector<ShardEndpoint> endpoints;
  if (spec.empty()) {
    return Status::InvalidArgument("empty shard endpoint list");
  }
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string entry = spec.substr(start, end - start);
    const size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return Status::InvalidArgument("endpoint '" + entry +
                                     "' is not host:port");
    }
    ShardEndpoint ep;
    ep.host = entry.substr(0, colon);
    uint64_t port = 0;
    for (size_t i = colon + 1; i < entry.size(); ++i) {
      const char c = entry[i];
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("endpoint '" + entry +
                                       "' has a non-numeric port");
      }
      port = port * 10 + static_cast<uint64_t>(c - '0');
      if (port > 65535) {
        return Status::InvalidArgument("endpoint '" + entry +
                                       "' port out of range");
      }
    }
    if (port == 0) {
      return Status::InvalidArgument("endpoint '" + entry + "' port is 0");
    }
    ep.port = static_cast<uint16_t>(port);
    endpoints.push_back(std::move(ep));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return endpoints;
}

/// Lends one request a set of shard Clients: an idle set when there is
/// one, a fresh undialled set otherwise, returned to the idle list when
/// the request is done. Sets are only created while every existing one
/// is leased, so there are never more sets than front-end workers.
class Coordinator::ShardLease {
 public:
  explicit ShardLease(Coordinator* coordinator) : coordinator_(coordinator) {
    {
      MutexLock lock(&coordinator_->shards_mu_);
      if (!coordinator_->idle_shards_.empty()) {
        clients_ = std::move(coordinator_->idle_shards_.back());
        coordinator_->idle_shards_.pop_back();
      }
    }
    clients_.resize(coordinator_->options_.shards.size());
  }
  ~ShardLease() {
    MutexLock lock(&coordinator_->shards_mu_);
    coordinator_->idle_shards_.push_back(std::move(clients_));
  }
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;

  Client& operator[](size_t i) { return clients_[i]; }

 private:
  Coordinator* coordinator_;
  std::vector<Client> clients_;
};

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)), front_end_(serve_, this, &metrics_) {
  serve_.host = options_.host;
  serve_.port = options_.port;
  partition_.num_shards =
      static_cast<uint32_t>(std::max<size_t>(1, options_.shards.size()));
  partition_.hashed = options_.hashed_tables;
  c_shard_errors_ = metrics_.GetCounter(kMetricShardErrorsTotal);
  c_writes_deduped_ = metrics_.GetCounter(kMetricWritesDedupedTotal);
  c_fleet_stats_ = metrics_.GetCounter(kMetricFleetStatsTotal);
  c_profile_merges_ = metrics_.GetCounter(kMetricProfileMergesTotal);
  // Per-shard latency histograms, named from the registry prefix so
  // dashboards can discover them without a schema change per fleet
  // size.
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    h_shard_latency_.push_back(metrics_.GetHistogram(
        std::string(kMetricShardLatency) + "." + std::to_string(i)));
  }
}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Start() {
  if (options_.shards.empty()) {
    return Status::InvalidArgument("coordinator needs at least one shard");
  }
  return front_end_.Start();
}

void Coordinator::Stop() {
  front_end_.Stop();
  MutexLock lock(&shards_mu_);
  idle_shards_.clear();
}

void Coordinator::RequestDrain() { front_end_.RequestDrain(); }

void Coordinator::Drain() {
  if (front_end_.Drain()) Stop();
}

Result<Client*> Coordinator::ShardClient(ShardLease* lease, size_t i) {
  Client& client = (*lease)[i];
  if (client.connected()) return &client;
  ClientOptions copts;
  copts.recv_timeout_millis = options_.shard_recv_timeout_millis;
  PCDB_ASSIGN_OR_RETURN(client, Client::Connect(options_.shards[i].host,
                                                options_.shards[i].port, copts));
  // A fresh connection: the shard must agree it is shard i of
  // num_shards. A mis-wired fleet (wrong --shard-id, a pcdbd from
  // another deployment) would otherwise produce answers that are
  // silently missing or double-counting rows. The span's rtt_micros arg
  // doubles as trace_merge.py's clock-skew bound for this shard's dump.
  PCDB_TRACE_SPAN(handshake_span, kSpanDistHandshake);
  handshake_span.Arg("shard", static_cast<uint64_t>(i));
  WallTimer rtt;
  Result<ShardInfo> info = client.GetShardInfo();
  handshake_span.Arg("rtt_micros", static_cast<uint64_t>(rtt.ElapsedMicros()));
  if (info.ok() && (info->shard_id != static_cast<uint32_t>(i) ||
                    info->num_shards != partition_.num_shards)) {
    info = Status::Internal(
        "shard endpoint " + std::to_string(i) + " reports shard " +
        std::to_string(info->shard_id) + " of " +
        std::to_string(info->num_shards) + "; expected shard " +
        std::to_string(i) + " of " + std::to_string(partition_.num_shards));
  }
  if (!info.ok()) {
    client.Close();  // unverified: never used
    return info.status();
  }
  return &client;
}

Status Coordinator::LegFailed(ShardLease* lease, size_t i,
                              const Status& status) {
  c_shard_errors_->Increment();
  // The connection may be mid-answer or dead; either way its stream can
  // no longer be trusted, so the next request on this set redials.
  (*lease)[i].Close();
  if (IsShardTransportFailure(status)) {
    // The shard is likely down or restarted, so the idle sets'
    // connections to it are dead too: close them now rather than let
    // each fail a later request.
    MutexLock lock(&shards_mu_);
    for (std::vector<Client>& idle : idle_shards_) idle[i].Close();
  }
  return ShardStatus(i, status);
}

Status Coordinator::ShardStatus(size_t shard, const Status& status) {
  if (IsShardTransportFailure(status)) {
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " unavailable: " + status.message());
  }
  return status;
}

Reply Coordinator::AnswerReply(const AnnotatedTable& answer,
                               const AnswerDone& done,
                               std::string profile_json) {
  auto encoded =
      std::make_shared<EncodedAnswer>(EncodeAnswer(answer, kRowsPerBatch));
  Reply reply;
  reply.status = CheckEncodedFrameSizes(*encoded);
  if (!reply.status.ok()) return reply;
  reply.answer = std::move(encoded);
  reply.done = done;
  reply.profile_json = std::move(profile_json);
  return reply;
}

Reply Coordinator::Query(const QueryRequest& request,
                         const std::shared_ptr<CancellationToken>& /*token*/,
                         uint64_t /*queue_micros*/) {
  PCDB_TRACE_SPAN(span, kSpanDistQuery);
  const QueryRouting routing = AnalyzeQuery(
      partition_, request.sql,
      (request.flags & QueryRequest::kFlagInstanceAware) != 0,
      (request.flags & QueryRequest::kFlagZombies) != 0);
  if (routing.route == QueryRoute::kUnsupported) {
    return Reply::Error(Status::Unimplemented(routing.reason));
  }
  ClientQueryOptions qopts;
  qopts.deadline_millis = request.deadline_millis;
  qopts.max_rows = request.max_rows;
  qopts.max_patterns = request.max_patterns;
  qopts.max_memory_bytes = request.max_memory_bytes;
  qopts.instance_aware =
      (request.flags & QueryRequest::kFlagInstanceAware) != 0;
  qopts.zombies = (request.flags & QueryRequest::kFlagZombies) != 0;
  qopts.profile = (request.flags & QueryRequest::kFlagProfile) != 0;
  qopts.tenant = request.tenant;
  ShardLease lease(this);

  if (routing.route == QueryRoute::kSingleShard) {
    // Forward verbatim: one shard has everything the query touches, so
    // its answer (and its errors, including parse errors) pass through
    // exactly as a non-sharded pcdbd would produce them.
    const size_t i = routing.shard;
    WallTimer shard_timer;
    Result<Client*> client = ShardClient(&lease, i);
    Result<ClientAnswer> answer =
        client.ok() ? (*client)->Query(request.sql, qopts)
                    : Result<ClientAnswer>(client.status());
    h_shard_latency_[i]->RecordMillis(shard_timer.ElapsedMillis());
    if (!answer.ok()) {
      return Reply::Error(LegFailed(&lease, i, answer.status()));
    }
    return AnswerReply(answer->table, answer->done, answer->profile);
  }

  // Broadcast: every shard evaluates (and minimizes) its slice; the
  // merge below is exact because the pattern algebra is schema-level
  // and every operator distributes over a union on the single
  // partitioned side (docs/DISTRIBUTED.md §4).
  const size_t n = options_.shards.size();
  std::vector<Result<ClientAnswer>> answers;
  std::vector<double> shard_millis(n, 0.0);
  {
    PCDB_TRACE_SPAN(scatter_span, kSpanDistScatter);
    WallTimer scatter_timer;
    // Every QUERY goes out before any answer is read, so the shards
    // evaluate their slices concurrently.
    std::vector<Result<uint64_t>> sent;
    for (size_t i = 0; i < n; ++i) {
      Result<Client*> client = ShardClient(&lease, i);
      sent.push_back(client.ok() ? (*client)->SendQuery(request.sql, qopts)
                                 : Result<uint64_t>(client.status()));
    }
    for (size_t i = 0; i < n; ++i) {
      answers.push_back(sent[i].ok() ? lease[i].ReadAnswer(*sent[i])
                                     : Result<ClientAnswer>(sent[i].status()));
      shard_millis[i] = scatter_timer.ElapsedMillis();
      h_shard_latency_[i]->RecordMillis(shard_millis[i]);
    }
  }
  // Any missing slice makes the union unsound to serve: a partial
  // answer could claim completeness for data the down shard holds.
  // Degrade loudly instead (docs/DISTRIBUTED.md §6), reporting the
  // lowest failed shard.
  Status failed;
  for (size_t i = 0; i < n; ++i) {
    if (answers[i].ok()) continue;
    Status status = LegFailed(&lease, i, answers[i].status());
    if (failed.ok()) failed = std::move(status);
  }
  if (!failed.ok()) return Reply::Error(std::move(failed));

  PCDB_TRACE_SPAN(merge_span, kSpanDistMerge);
  WallTimer merge_timer;
  AnnotatedTable merged;
  merged.data = Table(answers[0]->table.data.schema());
  size_t total_rows = 0;
  for (const Result<ClientAnswer>& answer : answers) {
    total_rows += answer->table.data.num_rows();
  }
  merged.data.Reserve(total_rows);
  PatternSet unioned;
  AnswerDone done;
  done.cache_hit = true;
  for (const Result<ClientAnswer>& answer : answers) {
    for (const Tuple& row : answer->table.data.rows()) {
      merged.data.AppendUnchecked(row);
    }
    for (const Pattern& p : answer->table.patterns) {
      unioned.Add(p);
    }
    merged.degraded = merged.degraded || answer->table.degraded;
    done.cache_hit = done.cache_hit && answer->done.cache_hit;
    done.data_millis += answer->done.data_millis;
    done.pattern_millis += answer->done.pattern_millis;
  }
  // Canonical order: the merged answer must not depend on shard count
  // or arrival order (the N-vs-1 differential contract).
  merged.data.Sort();
  // Per-shard sets are minimal within their slice but may subsume each
  // other across slices; minimizing the union restores the global
  // minimal set (subsumption removal is confluent, so minimizing
  // already-minimized parts loses nothing).
  merged.patterns = Minimize(unioned);
  merged.patterns.Sort();
  done.degraded = merged.degraded;

  std::string profile_json;
  if (qopts.profile) {
    // Fleet profile: the per-shard EXPLAIN ANALYZE payloads verbatim
    // (null for a shard that sent none) under "per_shard", plus the
    // coordinator's own merge cost. fleet_micros_total bounds the whole
    // fan-out: every shard's wall time plus the merge, so the sum of
    // any per-shard operator_micros can never exceed it.
    const double merge_millis = merge_timer.ElapsedMillis();
    double fleet_micros = merge_millis * 1000.0;
    std::string shard_list;
    std::string per_shard;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) {
        shard_list += ",";
        per_shard += ",";
      }
      shard_list += std::to_string(shard_millis[i]);
      per_shard +=
          answers[i]->profile.empty() ? "null" : answers[i]->profile;
      fleet_micros += shard_millis[i] * 1000.0;
    }
    profile_json = "{\"distributed\":true,\"route\":\"broadcast\",\"shards\":" +
                   std::to_string(n) +
                   ",\"merge_millis\":" + std::to_string(merge_millis) +
                   ",\"shard_millis\":[" + shard_list +
                   "],\"fleet_micros_total\":" +
                   std::to_string(static_cast<uint64_t>(fleet_micros)) +
                   ",\"per_shard\":[" + per_shard + "]}";
    c_profile_merges_->Increment();
  }
  return AnswerReply(merged, done, std::move(profile_json));
}

void Coordinator::Write(WriteRequest request, ReplyCallback done) {
  done(request.is_checkpoint ? Checkpoint() : BroadcastWrite(request));
}

Reply Coordinator::BroadcastWrite(const WriteRequest& request) {
  PCDB_TRACE_SPAN(span, kSpanDistWrite);
  const bool is_punctuate = request.is_punctuate;
  const std::string& table =
      is_punctuate ? request.punctuate.table : request.ingest.table;
  const bool hashed = partition_.IsHashed(table);
  if (hashed && !is_punctuate && partition_.num_shards > 1 &&
      request.ingest.policy == IngestRequest::kPolicyRejectRecord) {
    // Under reject policy the row's hash owner decides accept/reject
    // from its local patterns only, while the promise the row violates
    // may live on a different signature-owner shard — the fleet could
    // store the row AND keep the promise it violates, a completeness
    // verdict no single-process server would produce. Refuse loudly
    // (docs/DISTRIBUTED.md §5); retract policy stays exact because
    // every shard withdraws the promises it owns.
    return Reply::Error(Status::Unimplemented(
        "ingest into hash-partitioned table '" + table +
        "' under the reject policy is not supported in distributed mode "
        "(the violated promise may live on a different shard than the "
        "row); use the retract policy"));
  }
  ClientWriteOptions wopts;
  wopts.tenant = request.tenant();
  if (!is_punctuate) wopts.policy = request.ingest.policy;
  // Pin the client's identity onto every shard leg: a retry carries the
  // same (writer_id, seq), so the shards that already applied it dedup
  // (their WAL-persisted writer state) instead of double-applying, and
  // the retry converges exactly once. Unsequenced writes, (0, 0), take
  // each shard Client's own identity.
  wopts.writer_id = request.writer_id();
  wopts.seq = request.seq();

  // Every write broadcasts. Replicated tables apply identically
  // everywhere; hashed tables rely on shard-side filtering — the owner
  // stores each row while the shards owning the violated statement
  // signatures retract, which is what keeps cross-shard retraction
  // exact (docs/DISTRIBUTED.md §5).
  ShardLease lease(this);
  IngestResult total;
  bool all_duplicate = true;
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    WallTimer shard_timer;
    Result<Client*> client = ShardClient(&lease, i);
    Result<IngestResult> ack =
        !client.ok() ? Result<IngestResult>(client.status())
        : is_punctuate
            ? (*client)->Punctuate(table, request.punctuate.patterns, wopts)
            : (*client)->Ingest(table, request.ingest.rows, wopts);
    h_shard_latency_[i]->RecordMillis(shard_timer.ElapsedMillis());
    if (!ack.ok()) {
      // Partial fan-outs are reported, never hidden: the client sees an
      // error and retries with the same sequence; shard-side dedup
      // makes the re-broadcast converge.
      return Reply::Error(LegFailed(&lease, i, ack.status()));
    }
    all_duplicate = all_duplicate && ack->duplicate;
    if (hashed) {
      // Each row is stored by one owner and each statement lives on one
      // shard, so summing the per-shard deltas gives exact fleet totals
      // — except `violations`, which counts per-shard events: one row
      // violating promises on both its hash owner and a signature-owner
      // shard counts once on each (docs/DISTRIBUTED.md §5). A retry's
      // legs re-serve their stored counters, so it sums the same way.
      total.rows_ingested += ack->rows_ingested;
      total.rows_rejected += ack->rows_rejected;
      total.punctuations += ack->punctuations;
      total.patterns_retracted += ack->patterns_retracted;
      total.violations += ack->violations;
    } else if (i == 0) {
      // Replicated: every shard applied the identical op; shard 0's
      // counters are the answer.
      total = *ack;
    }
  }
  // Applied nowhere this time: every shard had already applied it.
  if (all_duplicate) c_writes_deduped_->Increment();
  total.seq = request.seq();
  total.duplicate = all_duplicate;
  return Reply::Single(FrameType::kIngestResult,
                       EncodeIngestResultPayload(total));
}

namespace {

/// Folds one shard's MetricsRegistry::ToJson snapshot into `fleet`:
/// counters and gauges sum by name; histograms merge their raw
/// power-of-two buckets plus sample sums (Histogram::MergeFrom), so
/// the fleet registry re-derives exact merged percentiles instead of
/// averaging per-shard quantiles. Unknown keys and missing sections
/// are tolerated (older shards); malformed values are an error.
Status MergeShardStats(const JsonValue& snapshot, MetricsRegistry* fleet) {
  const JsonValue* counters = snapshot.Find("counters");
  if (counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->members()) {
      PCDB_ASSIGN_OR_RETURN(uint64_t v, value.AsUint64());
      fleet->GetCounter(name)->Increment(v);
    }
  }
  const JsonValue* gauges = snapshot.Find("gauges");
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->members()) {
      PCDB_ASSIGN_OR_RETURN(int64_t v, value.AsInt64());
      fleet->GetGauge(name)->Add(v);
    }
  }
  const JsonValue* histograms = snapshot.Find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, value] : histograms->members()) {
      const JsonValue* bucket_list = value.Find("buckets");
      if (bucket_list == nullptr || !bucket_list->is_array()) {
        return Status::ParseError("histogram '" + name +
                                  "' snapshot has no buckets array");
      }
      uint64_t buckets[Histogram::kNumBuckets] = {};
      const size_t n =
          std::min<size_t>(bucket_list->items().size(), Histogram::kNumBuckets);
      for (size_t i = 0; i < n; ++i) {
        PCDB_ASSIGN_OR_RETURN(buckets[i], bucket_list->items()[i].AsUint64());
      }
      uint64_t sum_micros = 0;
      if (const JsonValue* sum = value.Find("sum_micros"); sum != nullptr) {
        PCDB_ASSIGN_OR_RETURN(sum_micros, sum->AsUint64());
      }
      fleet->GetHistogram(name)->MergeFrom(buckets, sum_micros);
    }
  }
  return Status::OK();
}

}  // namespace

Reply Coordinator::StatsReply() {
  MetricsRegistry fleet;
  std::vector<std::string> shard_jsons(options_.shards.size());
  ShardLease lease(this);
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    Result<Client*> client = ShardClient(&lease, i);
    Result<std::string> stats = client.ok()
                                    ? (*client)->Stats()
                                    : Result<std::string>(client.status());
    Status merged = stats.status();
    if (merged.ok()) {
      Result<JsonValue> parsed = ParseJson(*stats);
      merged = parsed.ok() ? MergeShardStats(*parsed, &fleet) : parsed.status();
    }
    if (!merged.ok()) {
      return Reply::Error(LegFailed(&lease, i, merged));
    }
    shard_jsons[i] = *std::move(stats);
  }
  c_fleet_stats_->Increment();
  // "fleet" leads so a client that only reads the first requests_total
  // sees the fleet-wide number; per-shard snapshots ride along verbatim
  // for drill-down, and the coordinator's own registry (front-end
  // requests and latency, this very counter) keeps its own key.
  std::string payload = "{\"fleet\":" + fleet.ToJson() + ",\"shards\":[";
  for (size_t i = 0; i < shard_jsons.size(); ++i) {
    if (i > 0) payload += ",";
    payload += shard_jsons[i];
  }
  payload += "],\"coordinator\":" + metrics_.ToJson() + "}";
  return Reply::Single(FrameType::kStatsResult, std::move(payload));
}

Reply Coordinator::ShardInfoReply() {
  ShardInfo merged;
  merged.shard_id = ShardInfo::kCoordinatorShardId;
  merged.num_shards = partition_.num_shards;
  std::map<std::string, ShardTableInfo> tables;
  ShardLease lease(this);
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    Result<Client*> client = ShardClient(&lease, i);
    Result<ShardInfo> info = client.ok() ? (*client)->GetShardInfo()
                                         : Result<ShardInfo>(client.status());
    if (!info.ok()) {
      return Reply::Error(LegFailed(&lease, i, info.status()));
    }
    for (ShardTableInfo& table_info : info->tables) {
      ShardTableInfo& entry = tables[table_info.table];
      entry.table = table_info.table;
      entry.hashed = entry.hashed || table_info.hashed;
      // Epoch *sums*: convergence of the fleet is visible as a stable
      // sum (each shard's epoch only ever grows).
      entry.epoch += table_info.epoch;
    }
  }
  merged.tables.reserve(tables.size());
  for (auto& [name, entry] : tables) merged.tables.push_back(entry);
  return Reply::Single(FrameType::kShardInfoResult,
                       EncodeShardInfoPayload(merged));
}

Reply Coordinator::Checkpoint() {
  CheckpointResult merged;
  ShardLease lease(this);
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    Result<Client*> client = ShardClient(&lease, i);
    Result<CheckpointResult> ckpt =
        client.ok() ? (*client)->Checkpoint()
                    : Result<CheckpointResult>(client.status());
    if (!ckpt.ok()) {
      return Reply::Error(LegFailed(&lease, i, ckpt.status()));
    }
    // Per-shard LSNs are independent sequences; the max is the most
    // informative single number, the removal count is a true sum.
    merged.lsn = std::max(merged.lsn, ckpt->lsn);
    merged.wal_segments_removed += ckpt->wal_segments_removed;
  }
  return Reply::Single(FrameType::kCheckpointResult,
                       EncodeCheckpointResultPayload(merged));
}

}  // namespace pcdb
