#ifndef PCDB_SERVER_FRONT_END_H_
#define PCDB_SERVER_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "server/answer_cache.h"
#include "server/net_socket.h"
#include "server/protocol.h"

/// \file
/// The network front end pcdbd and pcdb_coord share: a poll(2)-driven
/// event loop accepting client connections, admission control, CANCEL,
/// and a worker pool on which a RequestHandler answers each admitted
/// request. pcdbd's Server plugs in local evaluation and the WAL writer;
/// the Coordinator plugs in routing, scatter-gather and merge-minimize.
///
/// Threading model:
///  - One event-loop task owns all connection state (sockets, frame
///    readers, outbound buffers, per-request cancellation tokens). It
///    never blocks on a socket and never calls the handler.
///  - Admitted requests run as jobs on the worker pool, which call the
///    handler and post the reply to a completion queue; a self-pipe
///    wakes the loop, which frames the reply onto the right connection.
///  - CANCEL is handled entirely on the loop thread: a queued query is
///    answered kCancelled at once; an in-flight one has its
///    CancellationToken flipped (atomic) for the handler to observe.
///
/// Admission has two lanes:
///  - Queries: at most `max_inflight` run at once; beyond that, up to
///    `max_queued_per_connection` wait per connection, and anything
///    further is shed immediately with a kUnavailable wire error (never
///    silently dropped). A tenant past `tenant_read_quota` is shed too.
///  - Everything else the handler answers (INGEST, PUNCTUATE,
///    CHECKPOINT, STATS, SHARD_INFO) runs in arrival order per
///    connection, one request at a time, and never takes a query slot.
///    Writes are admitted against `max_pending_writes` and the
///    per-tenant `tenant_write_quota`, counted until their reply, and
///    shed with kUnavailable beyond them.

namespace pcdb {

/// \brief Tunables for a served port. The front end reads the network,
/// pool, admission, poll, quota and drain fields; the Server reads the
/// cache, batching, shard placement, WAL and checkpoint fields, and the
/// tenant tiers for its write order.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read back via Server::port()).
  uint16_t port = 0;
  /// Eval pool workers. Values < 2 are raised to 2: a 1-thread pool runs
  /// tasks inline in the submitter (common/thread_pool.h), which here is
  /// the event loop — queries would block frame processing and CANCEL
  /// could never overtake the query it targets.
  size_t eval_threads = 4;
  /// Admission: queries evaluating concurrently before queueing starts.
  size_t max_inflight = 4;
  /// Admission: queries waiting per connection before shedding starts.
  size_t max_queued_per_connection = 8;
  /// Connection cap. Surplus connections are accepted and immediately
  /// closed (the client sees EOF, counted as `connections_rejected`)
  /// rather than left hanging in the kernel backlog.
  size_t max_connections = 256;
  /// Answer cache sizing; `enable_cache = false` disables caching.
  AnswerCache::Options cache;
  bool enable_cache = true;
  /// Rows per ANSWER_ROWS frame.
  size_t rows_per_batch = 256;
  /// Poll timeout; bounds Stop() latency when the server is idle.
  int poll_millis = 100;
  /// Consecutive Poll() failures tolerated (with warn logs and bounded
  /// backoff) before the event loop gives up and exits. A persistent
  /// EBADF/ENOMEM must neither spin a core nor loop forever.
  size_t max_poll_errors = 64;
  /// Write admission: INGEST/PUNCTUATE/CHECKPOINT ops admitted but not
  /// yet acknowledged before new writes are shed with kUnavailable.
  size_t max_pending_writes = 256;
  /// Per-tenant share of the pending-write queue (0 = no per-tenant
  /// cap). One tenant flooding writes is shed at its quota while other
  /// tenants' writes — and all queries — proceed.
  size_t tenant_write_quota = 64;
  /// Priority tiers: tenant name -> tier. The writer drains pending
  /// writes highest tier first (FIFO within a tier); unlisted tenants
  /// (including the default "" tenant) are tier 0. The same tiers order
  /// *read* admission: when eval slots free up, the highest-tier queued
  /// query is dispatched first (FIFO within a tier).
  std::map<std::string, uint32_t> tenant_tiers;
  /// Per-tenant cap on admitted queries (in flight + queued), the read
  /// mirror of tenant_write_quota: a tenant at its quota is shed with
  /// kUnavailable (counted in queries_shed_total, plus a per-tenant
  /// `queries_shed_total.<tenant>` counter for tenants listed in
  /// tenant_tiers — unlisted tenants aggregate under
  /// `queries_shed_total.other`, so wire-supplied names cannot grow
  /// the registry unboundedly). 0 = no per-tenant cap.
  size_t tenant_read_quota = 0;
  /// Shard-mode placement (docs/DISTRIBUTED.md): this server's shard id
  /// and the total shard count. The default (shard 0 of 1) is a
  /// non-sharded server; both are reported in SHARD_INFO_RESULT.
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  /// Tables partitioned by row hash (everything else is replicated).
  /// With num_shards > 1, an INGEST into a hashed table is broadcast by
  /// the coordinator and filtered here: rows this shard owns
  /// (ShardForRow == shard_id) are stored; rows it does not own only
  /// retract the local completeness patterns they violate (patterns are
  /// partitioned by constant signature, not by row hash). PUNCTUATE
  /// patterns this shard does not own (ShardForPattern != shard_id) are
  /// skipped.
  std::set<std::string> hashed_tables;
  /// Slow-query log threshold: a query whose total server-side time
  /// (queue wait + evaluation + encode) reaches this many milliseconds
  /// is logged at warn level with its SQL and timings. 0 disables.
  double slow_query_millis = 0;
  /// WAL + checkpoint directory (docs/DURABILITY.md). Empty = run
  /// purely in memory (the pre-WAL behavior): no logging, no recovery,
  /// CHECKPOINT frames answered with kUnavailable.
  std::string wal_dir;
  /// Automatic checkpoint cadence: a snapshot is written after this
  /// many applied writes (and the covered WAL segments truncated).
  /// 0 = only explicit CHECKPOINT frames and Drain() checkpoint.
  uint64_t checkpoint_interval = 0;
  /// Drain() deadline: how long the event loop keeps running to answer
  /// admitted work before giving up and exiting anyway.
  int drain_timeout_millis = 5000;
};

/// \brief One request's reply, framed onto its connection by the loop.
struct Reply {
  /// Non-OK: one ERROR frame carrying this status.
  Status status;
  /// A query answer: framed as ANSWER_SCHEMA, ANSWER_ROWS...,
  /// ANSWER_PATTERNS, [ANSWER_PROFILE,] ANSWER_DONE.
  std::shared_ptr<const EncodedAnswer> answer;
  AnswerDone done;
  /// ANSWER_PROFILE payload, framed verbatim when non-empty.
  std::string profile_json;
  /// Any other reply: one frame of this type carrying `payload`.
  FrameType type = FrameType::kError;
  std::string payload;
  /// Released on the worker only after the reply is posted: handler
  /// state that may be costly to free (the Server's database snapshot,
  /// once a write has superseded it) stays off the reply's latency.
  std::shared_ptr<const void> hold;

  static Reply Error(Status status) {
    Reply reply;
    reply.status = std::move(status);
    return reply;
  }
  static Reply Single(FrameType type, std::string payload) {
    Reply reply;
    reply.type = type;
    reply.payload = std::move(payload);
    return reply;
  }
};

/// \brief One admitted INGEST, PUNCTUATE or CHECKPOINT.
struct WriteRequest {
  bool is_punctuate = false;
  /// A CHECKPOINT admin frame: carries no data.
  bool is_checkpoint = false;
  IngestRequest ingest;        ///< Valid for INGEST.
  PunctuateRequest punctuate;  ///< Valid for PUNCTUATE.

  const std::string& tenant() const {
    return is_punctuate ? punctuate.tenant : ingest.tenant;
  }
  /// The write's idempotence identity ((0,0) = unsequenced).
  uint64_t writer_id() const {
    return is_punctuate ? punctuate.writer_id : ingest.writer_id;
  }
  uint64_t seq() const { return is_punctuate ? punctuate.seq : ingest.seq; }
};

/// Delivers one write's reply; called exactly once, from any thread.
using ReplyCallback = std::function<void(Reply)>;

/// \brief What a FrontEnd serves. Every method runs on a front-end
/// worker, never on the event loop, so a handler may block: evaluate,
/// fsync, or round-trip to other servers.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  /// Answers one admitted QUERY. `token` is cancelled by CANCEL, by the
  /// connection going away and by Stop(); `queue_micros` is the time
  /// the query waited for admission.
  virtual Reply Query(const QueryRequest& request,
                      const std::shared_ptr<CancellationToken>& token,
                      uint64_t queue_micros) = 0;
  /// Applies one admitted write and passes its reply to `done`, before
  /// returning or later from another thread.
  virtual void Write(WriteRequest request, ReplyCallback done) = 0;
  /// Answers STATS with a STATS_RESULT reply.
  virtual Reply StatsReply() = 0;
  /// Answers SHARD_INFO with a SHARD_INFO_RESULT reply.
  virtual Reply ShardInfoReply() = 0;
};

/// \brief The event loop, admission control and worker pool of one
/// served port. Start() binds the listener; Stop() (or the destructor)
/// shuts everything down.
class FrontEnd {
 public:
  /// Serves `handler` under `options`, counting into `metrics`. All
  /// three must outlive the front end.
  FrontEnd(const ServerOptions& options, RequestHandler* handler,
           MetricsRegistry* metrics);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the listener and starts the event loop and worker pool. A
  /// stopped front end may be started again (with port 0 the new port
  /// may differ).
  [[nodiscard]] Status Start();

  /// Requests shutdown, cancels in-flight queries cooperatively, and
  /// blocks until the event loop and every worker job have finished.
  /// Idempotent.
  void Stop();

  /// Async-signal-safe drain request (an atomic store plus the wake
  /// pipe's write(2)): the event loop stops accepting connections and
  /// frames, answers everything already admitted, then exits.
  void RequestDrain();

  /// Blocking graceful shutdown: RequestDrain(), wait for the loop to
  /// answer admitted work (bounded by drain_timeout_millis), then
  /// Stop(). Returns false, doing nothing, when not running.
  bool Drain();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return listener_.port(); }

 private:
  struct Completion;
  struct Conn;
  struct LoopState;
  /// A request waiting in a connection's in-order lane.
  struct Ordered;

  void RunLoop();
  void ProcessCompletions(LoopState* state);
  void AcceptNewConnections(LoopState* state);
  void HandleReadable(LoopState* state, Conn* conn);
  void HandleFrame(LoopState* state, Conn* conn, Frame frame);
  void AdmitOrShed(LoopState* state, Conn* conn, uint64_t request_id,
                   QueryRequest request);
  /// Releases one unit of a tenant's read-quota load (admission counts
  /// in-flight + queued queries). Loop thread only.
  void DecTenantRead(LoopState* state, const std::string& tenant);
  /// Releases a write's pending-write units. Loop thread only.
  void ReleaseWrite(LoopState* state, const std::string& tenant);
  /// ServerOptions::tenant_tiers lookup; unlisted tenants are tier 0.
  uint32_t TenantTier(const std::string& tenant) const;
  void DispatchQuery(LoopState* state, Conn* conn, uint64_t request_id,
                     QueryRequest request, uint64_t admit_micros);
  /// Admits (or sheds) one request of the in-order lane.
  void AdmitOrdered(LoopState* state, Conn* conn, Ordered request);
  /// Starts the connection's next in-order request if none is running.
  void StartOrdered(LoopState* state, Conn* conn);
  void FlushWrites(Conn* conn);
  void RunQueryJob(uint64_t conn_id, uint64_t request_id, QueryRequest request,
                   std::shared_ptr<CancellationToken> token,
                   uint64_t admit_micros);
  void RunOrderedJob(uint64_t conn_id, Ordered request);
  void PostCompletion(Completion completion);

  const ServerOptions& options_;
  RequestHandler* const handler_;

  // Metric handles, resolved once in the constructor (registry lookups
  // take a lock; the metrics themselves are lock-free).
  Counter* c_requests_ = nullptr;
  Counter* c_shed_ = nullptr;
  Counter* c_errors_ = nullptr;
  Counter* c_cancelled_ = nullptr;
  Counter* c_timeouts_ = nullptr;
  Counter* c_connections_ = nullptr;
  Counter* c_conn_rejected_ = nullptr;
  Counter* c_conn_faults_ = nullptr;
  Counter* c_protocol_errors_ = nullptr;
  Counter* c_eval_task_faults_ = nullptr;
  Counter* c_poll_errors_ = nullptr;
  Counter* c_writes_shed_ = nullptr;
  Counter* c_queries_shed_ = nullptr;
  Gauge* g_connections_ = nullptr;
  Gauge* g_inflight_ = nullptr;
  Gauge* g_pending_writes_ = nullptr;
  Histogram* h_latency_ = nullptr;
  MetricsRegistry* metrics_;

  Listener listener_;
  WakePipe wake_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};

  mutable Mutex state_mu_;
  CondVar state_cv_;
  bool started_ PCDB_GUARDED_BY(state_mu_) = false;
  bool loop_done_ PCDB_GUARDED_BY(state_mu_) = false;

  Mutex completions_mu_;
  std::vector<Completion> completions_ PCDB_GUARDED_BY(completions_mu_);

  /// Declared after every member they use: destroyed first, so the loop
  /// task and worker jobs are joined while wake_/completions_ still
  /// exist.
  std::unique_ptr<ThreadPool> eval_pool_;
  std::unique_ptr<ThreadPool> loop_pool_;
};

}  // namespace pcdb

#endif  // PCDB_SERVER_FRONT_END_H_
