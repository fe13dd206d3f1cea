#ifndef PCDB_SERVER_SERVER_H_
#define PCDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "pattern/annotated.h"
#include "server/answer_cache.h"
#include "server/net_socket.h"
#include "server/protocol.h"

/// \file
/// pcdbd's serving core: a poll(2)-driven event loop accepting
/// concurrent client connections, an eval worker pool running governed
/// EvaluateAnnotated per query, an admission controller bounding
/// concurrent and queued work, and the answer cache.
///
/// Threading model:
///  - One event-loop task owns all connection state (sockets, frame
///    readers, outbound buffers, per-request cancellation tokens). It
///    never blocks on a socket and never evaluates a query.
///  - Query jobs run on the eval pool against an immutable database
///    snapshot (shared_ptr, copy-on-write under UpdateDatabase) and
///    post their result to a completion queue; a self-pipe wakes the
///    loop, which frames the answer onto the right connection.
///  - CANCEL is handled entirely on the loop thread: it flips the
///    job's CancellationToken (atomic), and the governed evaluator
///    returns kCancelled at its next checkpoint.
///
/// Admission control: at most `max_inflight` queries evaluate at once;
/// beyond that, up to `max_queued_per_connection` queries wait per
/// connection, and anything further is shed immediately with a
/// kUnavailable wire error (never silently dropped).
///
/// Write path (INGEST/PUNCTUATE): writes never enter the query
/// admission path. They queue on a bounded pending-write queue (global
/// cap + per-tenant quota; excess is shed with kUnavailable) and are
/// drained by a single writer job on the eval pool, highest tenant tier
/// first. The writer builds the next copy-on-write snapshot *outside*
/// db_mu_ — readers keep taking the current snapshot while the copy and
/// the FeedManager mutations run — then swaps the pointer under db_mu_
/// and invalidates only the answer-cache entries the epoch diff proves
/// stale (whole table for data changes and pattern retractions, one
/// pattern signature for pattern additions). One writer at a time plus
/// a bounded queue is what keeps ingest from starving queries: writes
/// occupy at most one eval worker regardless of arrival rate.

namespace pcdb {

/// \brief Tunables for a Server instance.
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
  /// Write queue: pending INGEST/PUNCTUATE ops buffered before new
  /// writes are shed with kUnavailable.
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

/// \brief The pcdbd serving core. Start() spins up the listener, event
/// loop and eval pool; Stop() (or the destructor) shuts everything down.
class Server {
 public:
  /// Takes the database to serve. Mutations after construction go
  /// through UpdateDatabase.
  explicit Server(AnnotatedDatabase db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the event loop and eval pool.
  /// A stopped server may be started again (the listener is rebound,
  /// so with port 0 the new port may differ); metrics and cache
  /// contents carry over across restarts.
  [[nodiscard]] Status Start();

  /// Requests shutdown, cancels in-flight queries cooperatively, and
  /// blocks until the event loop has exited. Idempotent. Deliberately
  /// does NOT checkpoint — the WAL alone must be able to reconstruct
  /// the state (which is what the crash-recovery tests exercise);
  /// graceful shutdown with a final checkpoint is Drain().
  void Stop();

  /// Async-signal-safe drain request (an atomic store plus the wake
  /// pipe's write(2)): the event loop stops accepting connections and
  /// frames, answers everything already admitted, then exits. pcdbd's
  /// SIGTERM/SIGINT handler calls exactly this.
  void RequestDrain();

  /// Blocking graceful shutdown: RequestDrain(), wait for the loop to
  /// finish answering admitted work (bounded by
  /// ServerOptions::drain_timeout_millis), stop the pools, and write a
  /// final checkpoint so the next Start() recovers without replay.
  void Drain();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return listener_.port(); }

  MetricsRegistry& metrics() { return metrics_; }
  const AnswerCache& cache() const { return cache_; }

  /// Copy-on-write database mutation: `fn` runs against a private copy
  /// of the current snapshot (built outside db_mu_ — readers are never
  /// blocked by the copy or by `fn`); on success the snapshot pointer
  /// is swapped and the cache entries the epoch diff proves stale are
  /// invalidated (whole tables for data changes and pattern
  /// retractions, single signatures for pattern additions). In-flight
  /// queries keep evaluating against the snapshot they started with
  /// (their cache entries carry the old epochs and simply become
  /// unreachable). Serialized with the INGEST/PUNCTUATE writer job on
  /// write_mu_.
  [[nodiscard]] Status UpdateDatabase(const std::function<Status(AnnotatedDatabase*)>& fn);

  /// Metrics + cache stats as one JSON object (the STATS payload).
  std::string StatsJson() const;

 private:
  struct Completion;
  struct Conn;
  struct LoopState;

  /// One admitted INGEST or PUNCTUATE, waiting for the writer job.
  struct WriteOp {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    std::string tenant;
    /// Resolved from ServerOptions::tenant_tiers at admission.
    uint32_t tier = 0;
    /// Admission order, for FIFO within a tier.
    uint64_t seq = 0;
    bool is_punctuate = false;
    /// A CHECKPOINT admin frame: rides the write queue (so it
    /// serializes after every previously admitted write) but carries no
    /// data; answered with CHECKPOINT_RESULT.
    bool is_checkpoint = false;
    IngestRequest ingest;        ///< Valid when !is_punctuate.
    PunctuateRequest punctuate;  ///< Valid when is_punctuate.

    /// The op's idempotence identity ((0,0) = unsequenced).
    uint64_t writer_id() const {
      return is_punctuate ? punctuate.writer_id : ingest.writer_id;
    }
    uint64_t wire_seq() const {
      return is_punctuate ? punctuate.seq : ingest.seq;
    }
  };

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
  /// ServerOptions::tenant_tiers lookup; unlisted tenants are tier 0.
  uint32_t TenantTier(const std::string& tenant) const;
  void DispatchQuery(LoopState* state, Conn* conn, uint64_t request_id,
                     QueryRequest request, uint64_t admit_micros);
  void FlushWrites(Conn* conn);
  void RunQueryJob(uint64_t conn_id, uint64_t request_id, QueryRequest request,
                   std::shared_ptr<CancellationToken> token,
                   std::shared_ptr<const AnnotatedDatabase> snapshot,
                   uint64_t admit_micros);
  void PostCompletion(Completion completion);
  std::shared_ptr<const AnnotatedDatabase> Snapshot() const
      PCDB_EXCLUDES(db_mu_);

  /// Queues a write (or sheds it onto conn->outbuf) and starts the
  /// writer job if none is running. Loop thread only.
  void EnqueueWrite(Conn* conn, WriteOp op) PCDB_EXCLUDES(writes_mu_);
  /// Drains pending_writes_ in batches until empty; one instance runs
  /// at a time (writer_active_). Runs on the eval pool.
  void RunWriterJob() PCDB_EXCLUDES(writes_mu_, write_mu_);
  /// Applies one op to the in-construction snapshot via FeedManager;
  /// fills `ack` with the op's outcome counters.
  [[nodiscard]] Status ApplyWriteOp(AnnotatedDatabase* next, WriteOp* op,
                      IngestResult* ack);
  /// Invalidates exactly the cache entries the before->after epoch diff
  /// proves stale: whole tables whose table epoch moved (data changes,
  /// retractions, drops), single signatures whose pattern-sig epoch
  /// moved under an unchanged table epoch (additions).
  void InvalidateDiff(const AnnotatedDatabase& before,
                      const AnnotatedDatabase& after);

  /// Startup recovery (first Start() with a wal_dir): load the newest
  /// checkpoint, replay the WAL tail past it, install the recovered
  /// snapshot, and open the WAL for appending (truncating any torn
  /// tail). See docs/DURABILITY.md §4.
  [[nodiscard]] Status RecoverFromDurableState() PCDB_EXCLUDES(write_mu_);
  /// Replay callback: decode one WAL record's payload and re-apply it
  /// (with the same dedup the live path uses) to the in-construction
  /// recovery snapshot.
  [[nodiscard]] Status ApplyRecoveredRecord(AnnotatedDatabase* next,
                                            const WalRecord& record)
      PCDB_REQUIRES(write_mu_);
  /// True when the op's (writer_id, seq) was already applied; loads the
  /// stored ack (re-encoded with duplicate=true) into `*ack_payload`.
  [[nodiscard]] bool IsDuplicateWrite(const WriteOp& op,
                                      std::string* ack_payload)
      PCDB_REQUIRES(write_mu_);
  /// Records the ack for a just-applied sequenced op so a retry of the
  /// same seq is served from it instead of re-applying.
  void RecordWriterAck(const WriteOp& op, const IngestResult& ack)
      PCDB_REQUIRES(write_mu_);
  /// Writes a checkpoint of the current snapshot + dedup state, then
  /// truncates the WAL segments it covers. kUnavailable without a WAL.
  [[nodiscard]] Result<CheckpointResult> CheckpointLocked()
      PCDB_REQUIRES(write_mu_) PCDB_EXCLUDES(db_mu_);
  std::string CheckpointPath() const {
    return options_.wal_dir + "/CHECKPOINT";
  }

  ServerOptions options_;
  MetricsRegistry metrics_;
  AnswerCache cache_;

  // Hot-path metric handles, resolved once in the constructor (registry
  // lookups take a lock; the metrics themselves are lock-free).
  Counter* c_requests_ = nullptr;
  Counter* c_shed_ = nullptr;
  Counter* c_cache_hits_ = nullptr;
  Counter* c_cache_misses_ = nullptr;
  Counter* c_errors_ = nullptr;
  Counter* c_cancelled_ = nullptr;
  Counter* c_timeouts_ = nullptr;
  Counter* c_connections_ = nullptr;
  Counter* c_conn_rejected_ = nullptr;
  Counter* c_conn_faults_ = nullptr;
  Counter* c_protocol_errors_ = nullptr;
  Counter* c_eval_task_faults_ = nullptr;
  Counter* c_poll_errors_ = nullptr;
  Counter* c_ingest_rows_ = nullptr;
  Counter* c_ingest_rejected_ = nullptr;
  Counter* c_punctuations_ = nullptr;
  Counter* c_patterns_retracted_ = nullptr;
  Counter* c_writes_shed_ = nullptr;
  Counter* c_queries_shed_ = nullptr;
  Counter* c_write_batches_ = nullptr;
  Counter* c_writes_deduped_ = nullptr;
  Gauge* g_connections_ = nullptr;
  Gauge* g_inflight_ = nullptr;
  Gauge* g_pending_writes_ = nullptr;
  Histogram* h_latency_ = nullptr;

  mutable Mutex db_mu_;
  std::shared_ptr<const AnnotatedDatabase> db_ PCDB_GUARDED_BY(db_mu_);

  /// Serializes snapshot *builders* (the writer job and UpdateDatabase).
  /// Held across copy + mutate; db_mu_ is taken only for the final
  /// pointer swap, so readers never wait on a writer's work.
  /// Lock order: write_mu_ before db_mu_; never the reverse. The
  /// PCDB_ACQUIRED_BEFORE annotation is the machine-checked form of
  /// that sentence: pcdb-analyze (lock-hierarchy) requires every
  /// observed nesting edge to be declared this way and keeps the
  /// declared order acyclic.
  Mutex write_mu_ PCDB_ACQUIRED_BEFORE(db_mu_);

  /// Durability state, owned by whoever holds write_mu_ (the writer job
  /// and recovery — the same serialization that orders the writes
  /// themselves). Null when running without a wal_dir.
  std::unique_ptr<WalWriter> wal_ PCDB_GUARDED_BY(write_mu_);
  /// Idempotent-retry dedup state: tenant -> writer -> last applied seq
  /// + stored ack. Persisted in every checkpoint; rebuilt from WAL
  /// records on replay.
  CheckpointWriters writers_ PCDB_GUARDED_BY(write_mu_);
  /// Applied writes since the last checkpoint, for checkpoint_interval.
  uint64_t writes_since_checkpoint_ PCDB_GUARDED_BY(write_mu_) = 0;
  /// Recovery runs once, on the first Start(): after a Stop()/Start()
  /// cycle the in-memory state is already authoritative and replaying
  /// the log again would double-apply it.
  bool recovered_ = false;

  Mutex writes_mu_;
  std::deque<WriteOp> pending_writes_ PCDB_GUARDED_BY(writes_mu_);
  /// Pending-op count per tenant, for quota shedding.
  std::map<std::string, size_t> tenant_pending_ PCDB_GUARDED_BY(writes_mu_);
  bool writer_active_ PCDB_GUARDED_BY(writes_mu_) = false;
  uint64_t write_seq_ PCDB_GUARDED_BY(writes_mu_) = 0;

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
  /// task and eval jobs are joined while wake_/completions_ still exist.
  std::unique_ptr<ThreadPool> eval_pool_;
  std::unique_ptr<ThreadPool> loop_pool_;
};

}  // namespace pcdb

#endif  // PCDB_SERVER_SERVER_H_
