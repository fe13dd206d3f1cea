#ifndef PCDB_SERVER_SERVER_H_
#define PCDB_SERVER_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "pattern/annotated.h"
#include "server/answer_cache.h"
#include "server/front_end.h"
#include "server/protocol.h"

/// \file
/// pcdbd's serving core: the RequestHandler the shared FrontEnd
/// (server/front_end.h) serves — governed EvaluateAnnotated per query
/// behind the answer cache, and the durable write path.
///
/// Queries evaluate on the front end's workers against an immutable
/// database snapshot (shared_ptr, copy-on-write under UpdateDatabase);
/// the front end's loop does the admission, CANCEL and framing.
///
/// Write path (INGEST/PUNCTUATE/CHECKPOINT): the front end admits writes
/// against its pending-write caps and hands each to Write() on a worker.
/// Write() queues the op locally; the worker that finds no writer active
/// becomes the writer and drains the queue in batches, highest tenant
/// tier first, one WAL group commit per batch. The writer builds the
/// next copy-on-write snapshot *outside* db_mu_ — readers keep taking
/// the current snapshot while the copy and the FeedManager mutations
/// run — then swaps the pointer under db_mu_ and invalidates only the
/// answer-cache entries the epoch diff proves stale (whole table for
/// data changes and pattern retractions, one pattern signature for
/// pattern additions). One writer at a time is what keeps ingest from
/// starving queries: writes occupy at most one worker regardless of
/// arrival rate.

namespace pcdb {

/// \brief The pcdbd serving core. Start() spins up the listener, event
/// loop and eval pool; Stop() (or the destructor) shuts everything down.
class Server : private RequestHandler {
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
  uint16_t port() const { return front_end_.port(); }

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
  /// One admitted write in the local group-commit queue.
  struct WriteOp {
    WriteRequest request;
    /// Delivers `reply` once the batch is done.
    ReplyCallback done;
    /// Set by the writer; the failure stands if the batch never got to
    /// this op.
    Reply reply = Reply::Error(Status::Internal("write batch failed"));
    /// Resolved from ServerOptions::tenant_tiers when queued.
    uint32_t tier = 0;
  };

  // RequestHandler: called on the front end's workers.
  Reply Query(const QueryRequest& request,
              const std::shared_ptr<CancellationToken>& token,
              uint64_t queue_micros) override;
  void Write(WriteRequest request, ReplyCallback done) override;
  Reply StatsReply() override;
  Reply ShardInfoReply() override;

  std::shared_ptr<const AnnotatedDatabase> Snapshot() const
      PCDB_EXCLUDES(db_mu_);

  /// Drains pending_writes_ in batches until empty; runs on the worker
  /// whose Write() found no writer active.
  void RunWriterJob() PCDB_EXCLUDES(writes_mu_, write_mu_);
  /// Logs and applies one tier-ordered batch, setting every op's reply.
  /// Runs under write_mu_; the replies are delivered after it.
  void ApplyWriteBatch(std::deque<WriteOp>* batch)
      PCDB_EXCLUDES(write_mu_);
  /// Applies one op to the in-construction snapshot via FeedManager;
  /// fills `ack` with the op's outcome counters.
  [[nodiscard]] Status ApplyWriteOp(AnnotatedDatabase* next,
                                    WriteRequest* op, IngestResult* ack);
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
  [[nodiscard]] bool IsDuplicateWrite(const WriteRequest& op,
                                      std::string* ack_payload)
      PCDB_REQUIRES(write_mu_);
  /// Records the ack for a just-applied sequenced op so a retry of the
  /// same seq is served from it instead of re-applying.
  void RecordWriterAck(const WriteRequest& op, const IngestResult& ack)
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

  // Metric handles, resolved once in the constructor (registry lookups
  // take a lock; the metrics themselves are lock-free). The front end
  // registers the request, connection and admission metrics.
  Counter* c_cache_hits_ = nullptr;
  Counter* c_cache_misses_ = nullptr;
  Counter* c_eval_task_faults_ = nullptr;
  Counter* c_ingest_rows_ = nullptr;
  Counter* c_ingest_rejected_ = nullptr;
  Counter* c_punctuations_ = nullptr;
  Counter* c_patterns_retracted_ = nullptr;
  Counter* c_write_batches_ = nullptr;
  Counter* c_writes_deduped_ = nullptr;

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

  /// The local group-commit queue: writes handed over by Write(),
  /// drained by whichever worker is the active writer.
  Mutex writes_mu_;
  std::deque<WriteOp> pending_writes_ PCDB_GUARDED_BY(writes_mu_);
  bool writer_active_ PCDB_GUARDED_BY(writes_mu_) = false;

  /// Declared last: destroyed first, so the loop and every worker job
  /// are joined while the state they use still exists.
  FrontEnd front_end_;
};

}  // namespace pcdb

#endif  // PCDB_SERVER_SERVER_H_
