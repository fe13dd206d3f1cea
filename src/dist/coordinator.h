#ifndef PCDB_DIST_COORDINATOR_H_
#define PCDB_DIST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "dist/partition.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/front_end.h"
#include "server/protocol.h"

/// \file
/// The distributed front end: a coordinator that speaks the unchanged
/// pcdbd client protocol on one port and scatter-gathers against a
/// fleet of shard servers behind it, reusing the same frame codec as
/// the inter-node RPC. Clients cannot tell a coordinator from a single
/// pcdbd — same frames, same answers (order-normalized), same error
/// codes — except that a down shard surfaces as kUnavailable instead
/// of an answer (docs/DISTRIBUTED.md §6: degrade loudly, never serve a
/// silently wrong completeness verdict).
///
/// Threading model: the coordinator is a RequestHandler behind the same
/// FrontEnd as pcdbd (server/front_end.h), so accept, framing,
/// admission, CANCEL of queued queries and drain are pcdbd's. Each
/// request runs on a front-end worker, holding one set of blocking shard
/// Clients — one per shard, dialled and verified over SHARD_INFO on
/// first use — borrowed from a mutex-guarded idle list for the request's
/// duration. Client is not thread-safe; a set is used by one request at
/// a time, and there are never more sets than workers. A broadcast sends
/// QUERY to every shard before reading any answer, so the shards
/// evaluate concurrently without a scatter pool.

namespace pcdb {

/// \brief One shard's address.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;
};

/// Parses "host:port,host:port,..." into endpoints.
[[nodiscard]] Result<std::vector<ShardEndpoint>> ParseEndpoints(
    const std::string& spec);

/// \brief Coordinator tunables.
struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  /// Front-end TCP port; 0 binds an ephemeral port (read back via
  /// Coordinator::port()).
  uint16_t port = 0;
  /// The shard fleet, in shard-id order (index == shard id). Must match
  /// every shard's --shard-id/--num-shards flags; each shard connection
  /// verifies its SHARD_INFO against this list when dialled.
  std::vector<ShardEndpoint> shards;
  /// Hash-partitioned tables; num_shards is implied by `shards`.
  std::set<std::string> hashed_tables;
  /// SO_RCVTIMEO on shard connections: a hung shard surfaces as a
  /// kTimeout (reported kUnavailable) instead of wedging the worker.
  int shard_recv_timeout_millis = 30000;
};

/// \brief The scatter-gather coordinator. Start() binds the front-end
/// listener; Stop() (or the destructor) shuts it down.
class Coordinator : private RequestHandler {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  [[nodiscard]] Status Start();
  /// Stops the front end and closes the idle shard connections.
  void Stop();
  /// Async-signal-safe drain request, as Server::RequestDrain.
  void RequestDrain();
  /// Answers everything admitted (bounded by the front end's drain
  /// deadline), then stops, as Server::Drain without the checkpoint.
  void Drain();

  /// The bound front-end port (valid after a successful Start).
  uint16_t port() const { return front_end_.port(); }

  MetricsRegistry& metrics() { return metrics_; }

  const PartitionMap& partition() const { return partition_; }

 private:
  /// One Client per shard (index == shard id), borrowed from
  /// idle_shards_ for the life of one request.
  class ShardLease;

  // RequestHandler: called on the front end's workers.
  Reply Query(const QueryRequest& request,
              const std::shared_ptr<CancellationToken>& token,
              uint64_t queue_micros) override;
  void Write(WriteRequest request, ReplyCallback done) override;
  /// Fleet-aggregated metrics: counter/gauge sums and histogram bucket
  /// merges across every shard's snapshot, with the per-shard snapshots
  /// verbatim under "shards" and the coordinator's own registry under
  /// "coordinator".
  Reply StatsReply() override;
  /// The fleet's placement: shard id kCoordinatorShardId, per-table
  /// epoch sums.
  Reply ShardInfoReply() override;

  /// Broadcasts one INGEST or PUNCTUATE to every shard.
  Reply BroadcastWrite(const WriteRequest& request);
  /// Checkpoints every shard.
  Reply Checkpoint();
  /// Frames a (merged or forwarded) answer.
  static Reply AnswerReply(const AnnotatedTable& answer,
                           const AnswerDone& done, std::string profile_json);

  /// The lease's connected, verified Client for shard `i`, dialling it
  /// if needed.
  [[nodiscard]] Result<Client*> ShardClient(ShardLease* lease, size_t i);
  /// Records a failed call on shard `i`: counts it, closes the lease's
  /// connection (the next request redials and re-verifies) and, after a
  /// transport failure, every idle set's connection to that shard, and
  /// returns the client-facing status.
  Status LegFailed(ShardLease* lease, size_t i, const Status& status);

  /// Wraps a shard-level failure for the client: transport-class
  /// failures (dead connection, timeout, refused dial) become
  /// kUnavailable naming the shard; evaluation verdicts pass through
  /// with their original code and message.
  static Status ShardStatus(size_t shard, const Status& status);

  CoordinatorOptions options_;
  /// The front end's settings: host and port from options_, pcdbd's
  /// defaults otherwise.
  ServerOptions serve_;
  PartitionMap partition_;
  MetricsRegistry metrics_;

  Counter* c_shard_errors_ = nullptr;
  Counter* c_writes_deduped_ = nullptr;
  Counter* c_fleet_stats_ = nullptr;
  Counter* c_profile_merges_ = nullptr;
  /// Per-shard round-trip latency, index == shard id (dynamic names
  /// composed from kMetricShardLatency).
  std::vector<Histogram*> h_shard_latency_;

  Mutex shards_mu_;
  /// Shard connection sets not leased by a running request.
  std::vector<std::vector<Client>> idle_shards_ PCDB_GUARDED_BY(shards_mu_);

  /// Declared last: destroyed first, so the loop and every worker job
  /// are joined while the state they use still exists.
  FrontEnd front_end_;
};

}  // namespace pcdb

#endif  // PCDB_DIST_COORDINATOR_H_
