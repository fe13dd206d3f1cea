#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/timer.h"
#include "obs/names.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "pattern/annotated_eval.h"
#include "pattern/feed.h"
#include "pattern/shard_route.h"
#include "sql/planner.h"

namespace pcdb {

/// Result of one query job, posted from an eval worker to the loop.
struct Server::Completion {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  /// Non-OK -> one ERROR frame; OK -> the answer frame sequence.
  Status status;
  std::shared_ptr<const EncodedAnswer> answer;
  AnswerDone done;
  /// Rendered QueryProfileToJson text; non-empty only when the request
  /// set kFlagProfile and the query succeeded. Framed verbatim as
  /// ANSWER_PROFILE, so the client receives it byte-identically.
  std::string profile_json;
  /// True for INGEST/PUNCTUATE completions: framed as one INGEST_RESULT
  /// (`write_ack`) instead of the answer sequence, and exempt from the
  /// query inflight accounting (writes never held an eval slot).
  bool is_write = false;
  /// Encoded ack payload; valid when is_write and status OK.
  std::string write_ack;
  /// Frame type `write_ack` is sent as: INGEST_RESULT for data writes,
  /// CHECKPOINT_RESULT for checkpoint admin ops.
  FrameType write_ack_type = FrameType::kIngestResult;
  /// Query completions carry the request's tenant so the loop can
  /// release its read-quota unit (LoopState::tenant_reads).
  std::string tenant;
};

/// Per-connection state. Owned exclusively by the event loop.
struct Server::Conn {
  uint64_t id = 0;
  Socket sock;
  FrameReader reader;
  /// Outbound bytes not yet written; [out_pos, size) is pending.
  std::string outbuf;
  size_t out_pos = 0;
  /// One admitted query waiting for an eval slot.
  struct QueuedQuery {
    uint64_t request_id = 0;
    QueryRequest request;
    /// Tracer-epoch time of admission, for queue-wait accounting.
    uint64_t admit_micros = 0;
  };
  /// Admitted queries waiting for an eval slot.
  std::deque<QueuedQuery> queued;
  /// Cancellation tokens of this connection's in-flight queries.
  std::map<uint64_t, std::shared_ptr<CancellationToken>> tokens;
  /// INGEST/PUNCTUATE ops admitted but not yet acked; a half-closed
  /// connection is owed these acks before it is reaped, exactly like
  /// queued/in-flight query answers.
  size_t pending_write_acks = 0;
  /// No more input will arrive or be processed; answer everything
  /// already admitted, flush the output, then close.
  bool closing = false;
  /// Stop decoding buffered input (the stream is off-protocol). Unlike
  /// plain `closing` (client EOF), buffered frames must NOT be drained.
  bool drop_input = false;
  /// Remove immediately (I/O error or injected fault).
  bool dead = false;

  bool HasPendingOutput() const { return out_pos < outbuf.size(); }
};

struct Server::LoopState {
  std::map<uint64_t, std::unique_ptr<Conn>> conns;
  /// Connections with queued queries, in admission order. May hold
  /// stale ids (connection closed, query cancelled) — skipped on pop.
  std::deque<uint64_t> admit_fifo;
  /// Queries currently on the eval pool.
  size_t inflight = 0;
  /// Admitted (in-flight + queued) queries per tenant, for
  /// ServerOptions::tenant_read_quota shedding. Absent = 0.
  std::map<std::string, size_t> tenant_reads;
  uint64_t next_conn_id = 1;
};

Server::Server(AnnotatedDatabase db, ServerOptions options)
    : options_(options),
      cache_(options.cache),
      db_(std::make_shared<AnnotatedDatabase>(std::move(db))) {
  c_requests_ = metrics_.GetCounter(kMetricRequestsTotal);
  c_shed_ = metrics_.GetCounter(kMetricShedTotal);
  c_cache_hits_ = metrics_.GetCounter(kMetricCacheHits);
  c_cache_misses_ = metrics_.GetCounter(kMetricCacheMisses);
  c_errors_ = metrics_.GetCounter(kMetricErrorsTotal);
  c_cancelled_ = metrics_.GetCounter(kMetricCancelledTotal);
  c_timeouts_ = metrics_.GetCounter(kMetricTimeoutsTotal);
  c_connections_ = metrics_.GetCounter(kMetricConnectionsTotal);
  c_conn_rejected_ = metrics_.GetCounter(kMetricConnectionsRejected);
  c_conn_faults_ = metrics_.GetCounter(kMetricConnectionFaults);
  c_protocol_errors_ = metrics_.GetCounter(kMetricProtocolErrors);
  c_eval_task_faults_ = metrics_.GetCounter(kMetricEvalTaskFaults);
  c_poll_errors_ = metrics_.GetCounter(kMetricPollErrors);
  c_ingest_rows_ = metrics_.GetCounter(kMetricIngestRowsTotal);
  c_ingest_rejected_ = metrics_.GetCounter(kMetricIngestRejectedTotal);
  c_punctuations_ = metrics_.GetCounter(kMetricPunctuationsTotal);
  c_patterns_retracted_ = metrics_.GetCounter(kMetricPatternsRetractedTotal);
  c_writes_shed_ = metrics_.GetCounter(kMetricWritesShedTotal);
  c_queries_shed_ = metrics_.GetCounter(kMetricQueriesShedTotal);
  c_write_batches_ = metrics_.GetCounter(kMetricWriteBatches);
  c_writes_deduped_ = metrics_.GetCounter(kMetricWritesDedupedTotal);
  g_connections_ = metrics_.GetGauge(kMetricConnectionsOpen);
  g_inflight_ = metrics_.GetGauge(kMetricInflight);
  g_pending_writes_ = metrics_.GetGauge(kMetricPendingWrites);
  h_latency_ = metrics_.GetHistogram(kMetricRequestLatency);
  // Resolve the engine-level counters eagerly: the first EngineMetrics()
  // call also installs the failpoint trip observer, so trips are counted
  // from the very first request.
  EngineMetrics();
}

Server::~Server() { Stop(); }

Status Server::Start() {
  {
    MutexLock lock(&state_mu_);
    if (started_) return Status::InvalidArgument("server already started");
  }
  if (!options_.wal_dir.empty() && !recovered_) {
    // Before the listener exists: no client may observe pre-recovery
    // state, and a recovery failure leaves nothing half-started.
    PCDB_RETURN_NOT_OK(RecoverFromDurableState());
    recovered_ = true;
  }
  PCDB_ASSIGN_OR_RETURN(listener_,
                        Listener::BindAndListen(options_.host, options_.port));
  PCDB_ASSIGN_OR_RETURN(wake_, WakePipe::Create());
  // Clear the previous Stop()/Drain()'s requests so a restarted loop
  // runs; the old pools (if any) already drained in Stop() and are
  // replaced below.
  stop_requested_.store(false, std::memory_order_release);
  drain_requested_.store(false, std::memory_order_release);
  // Eval pool floor of 2: a 1-thread ThreadPool runs tasks inline in the
  // submitter — the event loop — which would block frame processing for
  // the duration of a query and make mid-query CANCEL impossible.
  eval_pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(2, options_.eval_threads));
  // 2 for the same reason: the loop task must run on a worker, not
  // inline in Start().
  loop_pool_ = std::make_unique<ThreadPool>(2);
  {
    MutexLock lock(&state_mu_);
    started_ = true;
    loop_done_ = false;
  }
  loop_pool_->Submit([this] { RunLoop(); });
  return Status::OK();
}

void Server::Stop() {
  {
    MutexLock lock(&state_mu_);
    if (!started_) return;
  }
  stop_requested_.store(true, std::memory_order_release);
  wake_.Notify();
  {
    MutexLock lock(&state_mu_);
    while (!loop_done_) state_cv_.Wait(lock);
  }
  if (eval_pool_ != nullptr) {
    // The loop cancelled every in-flight token on exit, so governed
    // evaluations return kCancelled at their next checkpoint.
    eval_pool_->Wait();
    Status pool_status = eval_pool_->ConsumeStatus();
    if (!pool_status.ok()) c_eval_task_faults_->Increment();
  }
  // Release the port: a stopped server must not squat on its address —
  // a successor process (or a fresh Server in the same test binary) may
  // bind the same port immediately, e.g. to recover this server's WAL.
  listener_ = Listener();
  {
    // Everything is quiescent; allow a fresh Start() (rebinds the
    // listener, possibly on a different ephemeral port).
    MutexLock lock(&state_mu_);
    started_ = false;
  }
}

void Server::RequestDrain() {
  // Called from signal handlers: everything here must stay
  // async-signal-safe — a relaxed/release atomic store and the wake
  // pipe's single write(2). No locks, no allocation, no logging.
  drain_requested_.store(true, std::memory_order_release);
  wake_.Notify();
}

void Server::Drain() {
  {
    MutexLock lock(&state_mu_);
    if (!started_) return;
  }
  RequestDrain();
  {
    // The loop exits on its own once admitted work is answered (or the
    // drain deadline passes); Stop() below then only joins the pools.
    MutexLock lock(&state_mu_);
    while (!loop_done_) state_cv_.Wait(lock);
  }
  Stop();
  {
    // Final checkpoint: every accepted write is applied and the pools
    // are quiet, so the snapshot is the complete pre-shutdown state and
    // the next Start() recovers without any replay.
    MutexLock write_lock(&write_mu_);
    if (wal_ != nullptr) {
      Result<CheckpointResult> ckpt = CheckpointLocked();
      if (!ckpt.ok()) {
        // The WAL still covers everything the checkpoint would have;
        // recovery just replays more.
        LogWarn("final drain checkpoint failed")
            .Str("status", ckpt.status().ToString());
      }
    }
  }
  drain_requested_.store(false, std::memory_order_release);
}

std::shared_ptr<const AnnotatedDatabase> Server::Snapshot() const {
  MutexLock lock(&db_mu_);
  return db_;
}

Status Server::UpdateDatabase(
    const std::function<Status(AnnotatedDatabase*)>& fn) {
  // write_mu_ serializes snapshot builders (this and the writer job),
  // so the base we copy is still current at swap time. The copy and the
  // mutation run *outside* db_mu_ — readers (Snapshot) block only for
  // the pointer swap, and in-flight queries keep their old snapshot
  // alive via shared_ptr.
  MutexLock write_lock(&write_mu_);
  std::shared_ptr<const AnnotatedDatabase> base = Snapshot();
  auto next = std::make_shared<AnnotatedDatabase>(*base);
  PCDB_RETURN_NOT_OK(fn(next.get()));
  {
    MutexLock lock(&db_mu_);
    db_ = next;
  }
  // Eagerly reclaim cache entries the epoch diff proves stale (the
  // epochs-in-key already make them unreachable; this frees the bytes).
  InvalidateDiff(*base, *next);
  return Status::OK();
}

void Server::InvalidateDiff(const AnnotatedDatabase& before,
                            const AnnotatedDatabase& after) {
  std::map<std::string, uint64_t> old_epochs;
  for (const std::string& name : before.database().TableNames()) {
    old_epochs[name] = before.database().TableEpoch(name);
  }
  for (const std::string& name : after.database().TableNames()) {
    auto it = old_epochs.find(name);
    if (it == old_epochs.end() ||
        it->second != after.database().TableEpoch(name)) {
      // New table, data mutation, or pattern retraction (SetPatterns):
      // conservative wholesale invalidation.
      cache_.InvalidateTable(name);
    } else {
      // Table epoch unchanged, so only pattern *additions* can have
      // happened; drop exactly the entries whose query mask overlaps a
      // bumped signature. Entries under incomparable masks survive —
      // the fine-grained invalidation the signature epochs exist for.
      const auto& old_sigs = before.PatternSigEpochs(name);
      for (const auto& [sig, epoch] : after.PatternSigEpochs(name)) {
        auto old_it = old_sigs.find(sig);
        if (old_it == old_sigs.end() || old_it->second != epoch) {
          cache_.InvalidateSignature(name, sig);
        }
      }
    }
    if (it != old_epochs.end()) old_epochs.erase(it);
  }
  for (const auto& [name, epoch] : old_epochs) {
    // Dropped tables: nothing can match their key anymore.
    cache_.InvalidateTable(name);
  }
}

Status Server::RecoverFromDurableState() {
  // write_mu_ for writers_/wal_: the listener does not exist yet, so
  // there is no contention — the lock is for the annotations' benefit
  // and for safety if recovery ever moves later in the lifecycle.
  MutexLock write_lock(&write_mu_);
  PCDB_ASSIGN_OR_RETURN(std::optional<CheckpointState> ckpt,
                        LoadCheckpoint(CheckpointPath()));
  uint64_t after_lsn = 0;
  std::shared_ptr<AnnotatedDatabase> next;
  if (ckpt.has_value()) {
    // The checkpoint is the full pre-crash state (it serialized the
    // constructor-seeded tables along with everything else), so it
    // replaces the seed snapshot outright.
    after_lsn = ckpt->last_lsn;
    writers_ = std::move(ckpt->writers);
    next = std::make_shared<AnnotatedDatabase>(std::move(ckpt->db));
  } else {
    // No checkpoint yet: replay the whole log onto the seeded database
    // (WAL records reference tables the seed created).
    next = std::make_shared<AnnotatedDatabase>(*Snapshot());
  }
  PCDB_ASSIGN_OR_RETURN(
      WalReplayStats stats,
      ReplayWal(
          options_.wal_dir, after_lsn,
          [this, &next](const WalRecord& record)
              PCDB_NO_THREAD_SAFETY_ANALYSIS {
                // The analysis cannot see through std::function that
                // write_mu_ is held for the whole replay.
                return ApplyRecoveredRecord(next.get(), record);
              },
          &metrics_));
  if (stats.torn_tail) {
    LogWarn("wal replay stopped at a torn/corrupt tail")
        .Str("detail", stats.tail_detail)
        .Unum("replayed", stats.records_replayed);
  }
  LogInfo("durable state recovered")
      .Str("wal_dir", options_.wal_dir)
      .Unum("checkpoint_lsn", after_lsn)
      .Unum("replayed", stats.records_replayed)
      .Unum("skipped", stats.records_skipped);
  {
    MutexLock lock(&db_mu_);
    db_ = next;
  }
  WalWriterOptions wal_options;
  wal_options.metrics = &metrics_;
  // Guards against a log whose tail segments were truncated away while
  // the checkpoint references higher LSNs.
  wal_options.min_next_lsn = after_lsn + 1;
  PCDB_ASSIGN_OR_RETURN(wal_,
                        WalWriter::Open(options_.wal_dir, wal_options));
  return Status::OK();
}

Status Server::ApplyRecoveredRecord(AnnotatedDatabase* next,
                                    const WalRecord& record) {
  WriteOp op;
  op.tenant = record.tenant;
  if (record.type == WalRecordType::kPunctuate) {
    op.is_punctuate = true;
    PCDB_ASSIGN_OR_RETURN(op.punctuate,
                          DecodePunctuatePayload(record.payload));
  } else {
    PCDB_ASSIGN_OR_RETURN(op.ingest, DecodeIngestPayload(record.payload));
  }
  // Replay dedups exactly like the live path: a duplicate that slipped
  // into the log (retry landing in the same batch as the original) was
  // never applied, so it must not apply now either.
  std::string dup_ack;
  if (IsDuplicateWrite(op, &dup_ack)) return Status::OK();
  IngestResult ack;
  Status applied;
  try {
    applied = ApplyWriteOp(next, &op, &ack);
  } catch (const std::exception& e) {
    applied = Status::Internal(std::string("recovery apply exception: ") +
                               e.what());
  } catch (...) {
    applied = Status::Internal("recovery apply: unknown exception");
  }
  if (!applied.ok()) {
    // The op was accepted (logged) before the crash and its outcome —
    // including a partial apply + error — was already determined and
    // reported then. Re-applying is deterministic, so this is the same
    // outcome, not a recovery failure; stopping here would discard
    // every acked write after it.
    LogWarn("recovered write re-applied with an error")
        .Unum("lsn", record.lsn)
        .Str("status", applied.ToString());
  }
  RecordWriterAck(op, ack);
  return Status::OK();
}

bool Server::IsDuplicateWrite(const WriteOp& op, std::string* ack_payload) {
  const uint64_t writer_id = op.writer_id();
  const uint64_t seq = op.wire_seq();
  if (writer_id == 0 || seq == 0) return false;
  auto tenant_it = writers_.find(op.tenant);
  if (tenant_it == writers_.end()) return false;
  auto writer_it = tenant_it->second.find(writer_id);
  if (writer_it == tenant_it->second.end()) return false;
  const CheckpointWriterState& state = writer_it->second;
  if (seq > state.last_seq) return false;
  IngestResult ack;
  if (seq == state.last_seq && !state.ack.empty()) {
    // Re-serve the original ack's counters so the retry learns what its
    // write actually did.
    Result<IngestResult> stored = DecodeIngestResultPayload(state.ack);
    if (stored.ok()) ack = *stored;
  }
  // seq < last_seq: an older retry overtaken by newer writes — the
  // original counters are gone, but "already applied" still holds.
  ack.seq = seq;
  ack.duplicate = true;
  *ack_payload = EncodeIngestResultPayload(ack);
  return true;
}

void Server::RecordWriterAck(const WriteOp& op, const IngestResult& ack) {
  const uint64_t writer_id = op.writer_id();
  const uint64_t seq = op.wire_seq();
  if (writer_id == 0 || seq == 0) return;
  IngestResult stored = ack;
  stored.seq = seq;
  stored.duplicate = false;
  CheckpointWriterState state;
  state.last_seq = seq;
  state.ack = EncodeIngestResultPayload(stored);
  writers_[op.tenant][writer_id] = std::move(state);
}

Result<CheckpointResult> Server::CheckpointLocked() {
  if (wal_ == nullptr) {
    return Status::Unavailable(
        "server is running without a WAL (no wal_dir); nothing to "
        "checkpoint");
  }
  std::shared_ptr<const AnnotatedDatabase> snapshot = Snapshot();
  // Everything up to the last assigned LSN is applied in `snapshot`:
  // checkpoints run on the writer path, serialized after the batch that
  // carried them.
  const uint64_t last_lsn = wal_->next_lsn() - 1;
  PCDB_RETURN_NOT_OK(SaveCheckpoint(CheckpointPath(), *snapshot, last_lsn,
                                    writers_, &metrics_));
  CheckpointResult result;
  result.lsn = last_lsn;
  PCDB_ASSIGN_OR_RETURN(result.wal_segments_removed,
                        wal_->TruncateThrough(last_lsn));
  writes_since_checkpoint_ = 0;
  return result;
}

std::string Server::StatsJson() const {
  const AnswerCache::Stats cs = cache_.GetStats();
  std::string json = metrics_.ToJson();
  std::string cache_json =
      ",\"cache\":{\"hits\":" + std::to_string(cs.hits) +
      ",\"misses\":" + std::to_string(cs.misses) +
      ",\"insertions\":" + std::to_string(cs.insertions) +
      ",\"evictions\":" + std::to_string(cs.evictions) +
      ",\"invalidations\":" + std::to_string(cs.invalidations) +
      ",\"sig_invalidations\":" + std::to_string(cs.sig_invalidations) +
      ",\"entries\":" + std::to_string(cs.entries) +
      ",\"bytes\":" + std::to_string(cs.bytes) + "}";
  // Engine-level counters (minimization, degradation, failpoint trips)
  // live in the process-wide registry, shared across Server instances.
  cache_json += ",\"engine\":" + GlobalMetrics().ToJson();
  json.insert(json.size() - 1, cache_json);
  return json;
}

void Server::RunLoop() {
  LoopState state;
  size_t consecutive_poll_errors = 0;
  int poll_backoff_millis = 1;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_start;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (!draining && drain_requested_.load(std::memory_order_acquire)) {
      // Graceful drain: stop reading new requests (mark every conn
      // closing — the reap logic already waits for queued/in-flight
      // answers to flush), stop accepting, and exit once all owed work
      // is answered or the deadline passes.
      draining = true;
      drain_start = std::chrono::steady_clock::now();
      LogInfo("drain requested; refusing new work")
          .Unum("open_connections", state.conns.size());
      for (auto& [id, conn] : state.conns) conn->closing = true;
    }
    std::vector<PollItem> items;
    std::vector<uint64_t> item_conn;  // parallel to items; 0 = not a conn
    items.push_back(PollItem{wake_.read_fd(), true, false});
    item_conn.push_back(0);
    // The listener is always polled — at the connection cap, surplus
    // accepts are rejected (closed) rather than left in the backlog.
    // While draining it is parked (not polled readable), so pending
    // connections stay in the backlog and are never read.
    const size_t listener_index = items.size();
    items.push_back(PollItem{listener_.fd(), !draining, false});
    item_conn.push_back(0);
    for (const auto& [id, conn] : state.conns) {
      items.push_back(PollItem{conn->sock.fd(), !conn->closing,
                               conn->HasPendingOutput()});
      item_conn.push_back(id);
    }

    Result<int> poll_result = Poll(&items, options_.poll_millis);
    if (!poll_result.ok()) {
      // EINTR is retried inside Poll(); reaching here means a real
      // failure (EBADF, ENOMEM, injected fault). A bare `continue`
      // would spin this core at 100% forever on a persistent error —
      // back off exponentially (bounded), and give up after the
      // configured streak so a wedged loop becomes an observable
      // stopped server rather than a silent busy-loop.
      c_poll_errors_->Increment();
      ++consecutive_poll_errors;
      LogWarn("event loop poll failed")
          .Str("status", poll_result.status().ToString())
          .Unum("consecutive", consecutive_poll_errors)
          .Num("backoff_millis", poll_backoff_millis);
      if (consecutive_poll_errors >= options_.max_poll_errors) {
        LogError("event loop stopping after persistent poll failures")
            .Unum("consecutive", consecutive_poll_errors);
        break;
      }
      // pcdb-analyze: allow(blocking-in-loop): bounded poll-error backoff; the loop is already degraded and sleeping briefly beats spinning on a failing poll fd
      std::this_thread::sleep_for(
          std::chrono::milliseconds(poll_backoff_millis));
      poll_backoff_millis = std::min(poll_backoff_millis * 2, 100);
      continue;
    }
    consecutive_poll_errors = 0;
    poll_backoff_millis = 1;

    if (items[0].readable) wake_.Drain();
    ProcessCompletions(&state);
    // Re-arm the eval pool if an injected dispatch fault tripped its
    // first-error latch; otherwise it would skip every queued job.
    Status pool_status = eval_pool_->ConsumeStatus();
    if (!pool_status.ok()) c_eval_task_faults_->Increment();

    if (items[listener_index].readable) {
      AcceptNewConnections(&state);
    }

    for (size_t i = 0; i < items.size(); ++i) {
      if (item_conn[i] == 0) continue;
      auto it = state.conns.find(item_conn[i]);
      if (it == state.conns.end()) continue;
      Conn* conn = it->second.get();
      if (items[i].error) {
        conn->dead = true;
        continue;
      }
      if (items[i].readable && !conn->dead) HandleReadable(&state, conn);
      if (items[i].writable && !conn->dead) FlushWrites(conn);
    }

    // Reap connections: dead ones now; closing ones only once every
    // admitted query has been answered (no in-flight tokens, nothing
    // queued) AND the answers are flushed — the "flush what we owe"
    // contract for clients that half-close and wait for their answers.
    for (auto it = state.conns.begin(); it != state.conns.end();) {
      Conn* conn = it->second.get();
      const bool drained = conn->closing && !conn->HasPendingOutput() &&
                           conn->tokens.empty() && conn->queued.empty() &&
                           conn->pending_write_acks == 0;
      if (conn->dead || drained) {
        // In-flight queries of a dead connection are orphaned: cancel
        // so the workers stop early; their completions are dropped when
        // the conn id no longer resolves. (Drained conns have none.)
        // Queued queries die with the connection and never post a
        // completion, so release their read-quota units here (in-flight
        // ones release theirs when the completion arrives).
        for (auto& [rid, token] : conn->tokens) token->Cancel();
        for (const Conn::QueuedQuery& q : conn->queued) {
          DecTenantRead(&state, q.request.tenant);
        }
        it = state.conns.erase(it);
        g_connections_->Add(-1);
      } else {
        ++it;
      }
    }

    if (draining) {
      bool writes_idle;
      {
        MutexLock lock(&writes_mu_);
        writes_idle = pending_writes_.empty() && !writer_active_;
      }
      const bool all_answered =
          state.conns.empty() && writes_idle && state.inflight == 0;
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - drain_start)
              .count();
      if (all_answered || elapsed >= options_.drain_timeout_millis) {
        if (!all_answered) {
          LogWarn("drain deadline reached with work outstanding")
              .Unum("open_connections", state.conns.size())
              .Unum("inflight", static_cast<uint64_t>(state.inflight));
        }
        break;
      }
    }
  }

  // Shutdown: cancel everything in flight, then hand the connections'
  // sockets back to the kernel (destructors close them).
  for (auto& [id, conn] : state.conns) {
    for (auto& [rid, token] : conn->tokens) token->Cancel();
  }
  {
    MutexLock lock(&state_mu_);
    loop_done_ = true;
  }
  state_cv_.NotifyAll();
}

void Server::AcceptNewConnections(LoopState* state) {
  PCDB_TRACE_SPAN(span, kSpanServerAccept);
  // The try/catch confines an injected accept fault (throw action on
  // server.accept) to this accept round: the listener stays up.
  try {
    for (;;) {
      Result<Listener::AcceptResult> accepted = listener_.Accept();
      if (!accepted.ok()) {
        c_conn_faults_->Increment();
        return;
      }
      if (accepted->would_block) return;
      if (state->conns.size() >= options_.max_connections) {
        // At the cap: reject by immediate close (the Socket destructor)
        // so the client sees EOF instead of hanging in the backlog.
        c_conn_rejected_->Increment();
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->id = state->next_conn_id++;
      conn->sock = std::move(accepted->socket);
      if (!conn->sock.SetNonBlocking(true).ok()) continue;
      c_connections_->Increment();
      g_connections_->Add(1);
      state->conns.emplace(conn->id, std::move(conn));
    }
  } catch (...) {
    c_conn_faults_->Increment();
  }
}

void Server::HandleReadable(LoopState* state, Conn* conn) {
  // One guard per connection: any fault on the read/decode/handle path
  // (I/O error, injected throw) kills only this connection.
  try {
    char buf[16384];
    for (;;) {
      Result<IoResult> recv_result = conn->sock.Recv(buf, sizeof(buf));
      if (!recv_result.ok()) {
        c_conn_faults_->Increment();
        conn->dead = true;
        return;
      }
      if (recv_result->would_block) break;
      if (recv_result->eof) {
        // Client finished sending; flush what we owe, then close.
        conn->closing = true;
        break;
      }
      conn->reader.Feed(buf, recv_result->bytes);
      if (recv_result->bytes < sizeof(buf)) break;
    }
    for (;;) {
      Frame frame;
      Result<bool> decoded = conn->reader.Next(&frame);
      if (!decoded.ok()) {
        // Malformed framing: the stream is unrecoverable. Report once,
        // flush, close — siblings and the listener are untouched.
        c_protocol_errors_->Increment();
        AppendFrame(&conn->outbuf, FrameType::kError, 0,
                    EncodeErrorPayload(decoded.status()));
        conn->closing = true;
        conn->drop_input = true;
        break;
      }
      if (!*decoded) break;
      HandleFrame(state, conn, std::move(frame));
      // A client EOF (`closing` alone) does not stop the drain: frames
      // pipelined before the half-close still get answered.
      if (conn->dead || conn->drop_input) break;
    }
    FlushWrites(conn);
  } catch (...) {
    c_conn_faults_->Increment();
    conn->dead = true;
  }
}

void Server::HandleFrame(LoopState* state, Conn* conn, Frame frame) {
  PCDB_TRACE_SPAN(span, kSpanServerFrame);
  switch (frame.type) {
    case FrameType::kPing:
      AppendFrame(&conn->outbuf, FrameType::kPong, frame.request_id, "");
      return;
    case FrameType::kStats:
      AppendFrame(&conn->outbuf, FrameType::kStatsResult, frame.request_id,
                  StatsJson());
      return;
    case FrameType::kCancel: {
      Result<uint64_t> target = DecodeCancelPayload(frame.payload);
      if (!target.ok()) {
        c_protocol_errors_->Increment();
        AppendFrame(&conn->outbuf, FrameType::kError, frame.request_id,
                    EncodeErrorPayload(target.status()));
        return;
      }
      // Still waiting for an eval slot? Answer kCancelled right away.
      for (auto it = conn->queued.begin(); it != conn->queued.end(); ++it) {
        if (it->request_id == *target) {
          DecTenantRead(state, it->request.tenant);
          conn->queued.erase(it);
          c_cancelled_->Increment();
          AppendFrame(&conn->outbuf, FrameType::kError, *target,
                      EncodeErrorPayload(
                          Status::Cancelled("execution cancelled by caller")));
          return;
        }
      }
      // In flight? Flip the token; the governed evaluator answers with
      // kCancelled through the normal completion path. Unknown ids
      // (already answered, never sent) are a silent no-op per protocol.
      auto it = conn->tokens.find(*target);
      if (it != conn->tokens.end()) it->second->Cancel();
      return;
    }
    case FrameType::kQuery: {
      Result<QueryRequest> request = DecodeQueryPayload(frame.payload);
      if (!request.ok()) {
        c_protocol_errors_->Increment();
        AppendFrame(&conn->outbuf, FrameType::kError, frame.request_id,
                    EncodeErrorPayload(request.status()));
        return;
      }
      AdmitOrShed(state, conn, frame.request_id, std::move(*request));
      return;
    }
    case FrameType::kIngest: {
      Result<IngestRequest> request = DecodeIngestPayload(frame.payload);
      if (!request.ok()) {
        c_protocol_errors_->Increment();
        AppendFrame(&conn->outbuf, FrameType::kError, frame.request_id,
                    EncodeErrorPayload(request.status()));
        return;
      }
      WriteOp op;
      op.conn_id = conn->id;
      op.request_id = frame.request_id;
      op.tenant = request->tenant;
      op.ingest = std::move(*request);
      EnqueueWrite(conn, std::move(op));
      return;
    }
    case FrameType::kPunctuate: {
      Result<PunctuateRequest> request =
          DecodePunctuatePayload(frame.payload);
      if (!request.ok()) {
        c_protocol_errors_->Increment();
        AppendFrame(&conn->outbuf, FrameType::kError, frame.request_id,
                    EncodeErrorPayload(request.status()));
        return;
      }
      WriteOp op;
      op.conn_id = conn->id;
      op.request_id = frame.request_id;
      op.tenant = request->tenant;
      op.is_punctuate = true;
      op.punctuate = std::move(*request);
      EnqueueWrite(conn, std::move(op));
      return;
    }
    case FrameType::kCheckpoint: {
      // Admin frame: rides the write queue so it serializes after every
      // previously accepted write, but is never WAL-logged itself.
      WriteOp op;
      op.conn_id = conn->id;
      op.request_id = frame.request_id;
      op.is_checkpoint = true;
      EnqueueWrite(conn, std::move(op));
      return;
    }
    case FrameType::kShardInfo: {
      // Shard handshake: this server's placement plus a per-table epoch
      // snapshot. The coordinator uses it to verify its partition map
      // against what each shard believes; the dist CI stage uses the
      // epochs to assert post-recovery convergence.
      ShardInfo info;
      info.shard_id = options_.shard_id;
      info.num_shards = std::max<uint32_t>(1, options_.num_shards);
      std::shared_ptr<const AnnotatedDatabase> snapshot = Snapshot();
      for (const std::string& t : snapshot->database().TableNames()) {
        ShardTableInfo table_info;
        table_info.table = t;
        table_info.hashed = options_.hashed_tables.count(t) > 0;
        table_info.epoch = snapshot->database().TableEpoch(t);
        info.tables.push_back(std::move(table_info));
      }
      AppendFrame(&conn->outbuf, FrameType::kShardInfoResult,
                  frame.request_id, EncodeShardInfoPayload(info));
      return;
    }
    default:
      // A client sending server-side frame types is off-protocol.
      c_protocol_errors_->Increment();
      AppendFrame(&conn->outbuf, FrameType::kError, frame.request_id,
                  EncodeErrorPayload(Status::InvalidArgument(
                      "unexpected frame type from client")));
      conn->closing = true;
      conn->drop_input = true;
      return;
  }
}

void Server::AdmitOrShed(LoopState* state, Conn* conn, uint64_t request_id,
                         QueryRequest request) {
  c_requests_->Increment();
  if (options_.tenant_read_quota > 0) {
    size_t& load = state->tenant_reads[request.tenant];
    if (load >= options_.tenant_read_quota) {
      // Read-side quota shed, the mirror of the write path: one tenant
      // flooding queries is shed at its quota while other tenants'
      // queries (and all writes) proceed.
      c_shed_->Increment();
      c_queries_shed_->Increment();
      // Per-tenant breakdown only for configured tenants: the name
      // comes off the wire, and a client cycling random tenant strings
      // must not grow the registry (and the /stats payload) without
      // bound. Unknown tenants aggregate under ".other".
      const bool known_tenant =
          options_.tenant_tiers.count(request.tenant) > 0;
      metrics_
          .GetCounter(std::string(kMetricQueriesShedTotal) + "." +
                      (known_tenant ? request.tenant : "other"))
          ->Increment();
      AppendFrame(&conn->outbuf, FrameType::kError, request_id,
                  EncodeErrorPayload(Status::Unavailable(
                      "read quota exhausted for tenant '" + request.tenant +
                      "'")));
      return;
    }
    ++load;
  }
  const uint64_t admit_micros = Tracer::Global().NowMicros();
  if (state->inflight < options_.max_inflight) {
    DispatchQuery(state, conn, request_id, std::move(request), admit_micros);
    return;
  }
  if (conn->queued.size() < options_.max_queued_per_connection) {
    conn->queued.push_back(
        Conn::QueuedQuery{request_id, std::move(request), admit_micros});
    state->admit_fifo.push_back(conn->id);
    return;
  }
  // Load shed: an explicit retryable error, never a silent drop. The
  // query never became admitted load, so give its quota unit back.
  DecTenantRead(state, request.tenant);
  c_shed_->Increment();
  AppendFrame(&conn->outbuf, FrameType::kError, request_id,
              EncodeErrorPayload(Status::Unavailable(
                  "server overloaded: in-flight and per-connection queue "
                  "budgets are exhausted")));
}

void Server::DecTenantRead(LoopState* state, const std::string& tenant) {
  if (options_.tenant_read_quota == 0) return;
  auto it = state->tenant_reads.find(tenant);
  if (it != state->tenant_reads.end() && --(it->second) == 0) {
    state->tenant_reads.erase(it);
  }
}

uint32_t Server::TenantTier(const std::string& tenant) const {
  auto it = options_.tenant_tiers.find(tenant);
  return it != options_.tenant_tiers.end() ? it->second : 0;
}

void Server::EnqueueWrite(Conn* conn, WriteOp op) {
  c_requests_->Increment();
  bool start_writer = false;
  Status shed;
  {
    MutexLock lock(&writes_mu_);
    if (pending_writes_.size() >= options_.max_pending_writes) {
      shed = Status::Unavailable(
          "write queue full: " + std::to_string(pending_writes_.size()) +
          " pending writes");
    } else if (options_.tenant_write_quota > 0 &&
               tenant_pending_[op.tenant] >= options_.tenant_write_quota) {
      shed = Status::Unavailable("write quota exhausted for tenant '" +
                                 op.tenant + "'");
    } else {
      op.seq = ++write_seq_;
      op.tier = TenantTier(op.tenant);
      ++tenant_pending_[op.tenant];
      pending_writes_.push_back(std::move(op));
      g_pending_writes_->Set(static_cast<int64_t>(pending_writes_.size()));
      if (!writer_active_) {
        writer_active_ = true;
        start_writer = true;
      }
      ++conn->pending_write_acks;
    }
  }
  if (!shed.ok()) {
    // Load shed, like queries: an explicit retryable error, never a
    // silent drop — and per tenant, so one flooding feed cannot crowd
    // out its neighbours (or queries, which never queue here at all).
    c_writes_shed_->Increment();
    AppendFrame(&conn->outbuf, FrameType::kError, op.request_id,
                EncodeErrorPayload(shed));
    return;
  }
  if (start_writer) {
    eval_pool_->Submit([this] { RunWriterJob(); });
  }
}

void Server::RunWriterJob() {
  // Exactly one writer job runs at a time (writer_active_); it drains
  // the pending queue in batches, building each next snapshot outside
  // db_mu_ so readers are never blocked by write work.
  try {
    for (;;) {
      std::vector<WriteOp> batch;
      {
        MutexLock lock(&writes_mu_);
        if (pending_writes_.empty()) {
          writer_active_ = false;
          g_pending_writes_->Set(0);
          return;
        }
        batch.assign(std::make_move_iterator(pending_writes_.begin()),
                     std::make_move_iterator(pending_writes_.end()));
        pending_writes_.clear();
        g_pending_writes_->Set(0);
        for (const WriteOp& op : batch) {
          auto it = tenant_pending_.find(op.tenant);
          if (it != tenant_pending_.end() && --(it->second) == 0) {
            tenant_pending_.erase(it);
          }
        }
      }
      // Highest tenant tier first; stable = FIFO (seq order) within a
      // tier.
      std::stable_sort(batch.begin(), batch.end(),
                       [](const WriteOp& a, const WriteOp& b) {
                         return a.tier > b.tier;
                       });
      c_write_batches_->Increment();
      PCDB_TRACE_SPAN(batch_span, kSpanServerWriteBatch);
      batch_span.Arg("ops", batch.size());

      MutexLock write_lock(&write_mu_);
      std::vector<Completion> comps;
      comps.reserve(batch.size());
      // Classify: checkpoint admin ops (never WAL-logged), duplicates
      // of already-applied writes (answered from the recorded ack
      // without re-logging or re-applying), and pending data ops.
      std::vector<WriteOp*> checkpoints;
      std::vector<WriteOp*> pending;
      for (WriteOp& op : batch) {
        if (op.is_checkpoint) {
          checkpoints.push_back(&op);
          continue;
        }
        std::string dup_ack;
        if (IsDuplicateWrite(op, &dup_ack)) {
          c_writes_deduped_->Increment();
          Completion comp;
          comp.conn_id = op.conn_id;
          comp.request_id = op.request_id;
          comp.is_write = true;
          comp.write_ack = std::move(dup_ack);
          comps.push_back(std::move(comp));
          continue;
        }
        pending.push_back(&op);
      }

      // Group commit: the whole batch becomes one WAL segment write and
      // one fsync, before anything applies — an OK ack implies the
      // write survives a crash.
      if (wal_ != nullptr && !pending.empty()) {
        std::vector<WalRecord> records;
        records.reserve(pending.size());
        for (WriteOp* op : pending) {
          WalRecord record;
          record.type = op->is_punctuate ? WalRecordType::kPunctuate
                                         : WalRecordType::kIngest;
          record.tenant = op->tenant;
          record.writer_id = op->writer_id();
          record.seq = op->wire_seq();
          record.payload = op->is_punctuate
                               ? EncodePunctuatePayload(op->punctuate)
                               : EncodeIngestPayload(op->ingest);
          records.push_back(std::move(record));
        }
        Status logged = wal_->AppendBatch(&records);
        if (!logged.ok()) {
          // Nothing from this batch is durable: fail every pending op
          // (acking would promise durability we don't have) and every
          // checkpoint op (truncating a log we could not extend would
          // be exactly backwards). Duplicates already classified keep
          // their success ack — their writes were durable long ago.
          for (const WriteOp* op : pending) {
            Completion comp;
            comp.conn_id = op->conn_id;
            comp.request_id = op->request_id;
            comp.is_write = true;
            comp.status = logged;
            c_errors_->Increment();
            comps.push_back(std::move(comp));
          }
          for (const WriteOp* op : checkpoints) {
            Completion comp;
            comp.conn_id = op->conn_id;
            comp.request_id = op->request_id;
            comp.is_write = true;
            comp.status = logged;
            c_errors_->Increment();
            comps.push_back(std::move(comp));
          }
          for (Completion& comp : comps) PostCompletion(std::move(comp));
          continue;
        }
      }

      if (!pending.empty()) {
        std::shared_ptr<const AnnotatedDatabase> base = Snapshot();
        // The copy-on-write copy happens here, outside db_mu_: readers
        // keep taking `base` while we build its successor.
        auto next = std::make_shared<AnnotatedDatabase>(*base);
        for (WriteOp* op_ptr : pending) {
          WriteOp& op = *op_ptr;
          Completion comp;
          comp.conn_id = op.conn_id;
          comp.request_id = op.request_id;
          comp.is_write = true;
          // Second dedup check: a retry batched together with its
          // original slipped past the pre-filter (last_seq was stale at
          // classification) and is now in the WAL — replay performs
          // this same check, so it never double-applies either.
          std::string dup_ack;
          if (IsDuplicateWrite(op, &dup_ack)) {
            c_writes_deduped_->Increment();
            comp.write_ack = std::move(dup_ack);
            comps.push_back(std::move(comp));
            continue;
          }
          IngestResult ack;
          try {
            comp.status = ApplyWriteOp(next.get(), &op, &ack);
          } catch (const std::exception& e) {
            comp.status = Status::Internal(
                std::string("write worker exception: ") + e.what());
          } catch (...) {
            comp.status = Status::Internal("write worker: unknown exception");
          }
          ack.seq = op.wire_seq();
          if (comp.status.ok()) {
            comp.write_ack = EncodeIngestResultPayload(ack);
          } else {
            c_errors_->Increment();
          }
          c_ingest_rows_->Increment(ack.rows_ingested);
          c_ingest_rejected_->Increment(ack.rows_rejected);
          c_punctuations_->Increment(ack.punctuations);
          c_patterns_retracted_->Increment(ack.patterns_retracted);
          // Recorded even when the apply errored: the op is durably
          // logged and replay is deterministic, so a retry must be
          // served "already applied" rather than re-applying a prefix.
          RecordWriterAck(op, ack);
          comps.push_back(std::move(comp));
        }
        {
          MutexLock lock(&db_mu_);
          db_ = next;
        }
        InvalidateDiff(*base, *next);
        writes_since_checkpoint_ += pending.size();
      }

      // Checkpoints run after the batch's data ops applied and the
      // snapshot swapped, so the checkpoint includes this batch.
      const bool auto_checkpoint =
          wal_ != nullptr && options_.checkpoint_interval > 0 &&
          writes_since_checkpoint_ >= options_.checkpoint_interval;
      if (!checkpoints.empty() || auto_checkpoint) {
        Result<CheckpointResult> ckpt = CheckpointLocked();
        if (!ckpt.ok() && checkpoints.empty()) {
          LogWarn("automatic checkpoint failed")
              .Str("status", ckpt.status().ToString());
        }
        for (const WriteOp* op : checkpoints) {
          Completion comp;
          comp.conn_id = op->conn_id;
          comp.request_id = op->request_id;
          comp.is_write = true;
          if (ckpt.ok()) {
            comp.write_ack = EncodeCheckpointResultPayload(*ckpt);
            comp.write_ack_type = FrameType::kCheckpointResult;
          } else {
            comp.status = ckpt.status();
            c_errors_->Increment();
          }
          comps.push_back(std::move(comp));
        }
      }
      for (Completion& comp : comps) PostCompletion(std::move(comp));
    }
  } catch (...) {
    // Defensive: ApplyWriteOp faults are confined per op above; this
    // catches infrastructure failures (allocation during the copy,
    // etc.). Clear writer_active_ so the next enqueue restarts a
    // writer; ops already popped are lost and their clients time out.
    c_eval_task_faults_->Increment();
    MutexLock lock(&writes_mu_);
    writer_active_ = false;
  }
}

Status Server::ApplyWriteOp(AnnotatedDatabase* next, WriteOp* op,
                            IngestResult* ack) {
  // Adopt the writer's trace context (if the frame carried one) so this
  // shard's ingest span parents under the coordinator's dist.write span
  // in a merged fleet trace.
  const uint64_t op_trace_id =
      op->is_punctuate ? op->punctuate.trace_id : op->ingest.trace_id;
  const uint64_t op_parent_span_id = op->is_punctuate
                                         ? op->punctuate.parent_span_id
                                         : op->ingest.parent_span_id;
  TraceContextScope trace_scope(TraceContext{op_trace_id, op_parent_span_id});
  PCDB_TRACE_SPAN(span, kSpanServerIngest);
  span.Arg("punctuate", op->is_punctuate ? 1 : 0);
  PCDB_FAILPOINT("server.ingest");
  // A fresh FeedManager per op: its stats are exactly this op's delta,
  // and the policy is the op's own.
  FeedManager feed(next,
                   !op->is_punctuate &&
                           op->ingest.policy ==
                               IngestRequest::kPolicyRetractPatterns
                       ? FeedViolationPolicy::kRetractPatterns
                       : FeedViolationPolicy::kRejectRecord);
  Status status;
  if (op->is_punctuate) {
    const bool hashed = options_.num_shards > 1 &&
                        options_.hashed_tables.count(op->punctuate.table) > 0;
    for (const std::vector<std::string>& fields : op->punctuate.patterns) {
      if (hashed) {
        // Statements over a hashed table are partitioned by constant
        // signature: only the owning shard stores this pattern. Parse
        // failures fall through to Punctuate so the error is the same
        // one a non-sharded server would report.
        Result<const Table*> stored =
            next->database().GetTable(op->punctuate.table);
        if (stored.ok()) {
          Result<Pattern> p = Pattern::Parse(fields, (*stored)->schema());
          if (p.ok() && ShardForPattern(*p, options_.num_shards) !=
                            options_.shard_id) {
            continue;
          }
        }
      }
      status = feed.Punctuate(op->punctuate.table, fields);
      if (!status.ok()) break;
    }
  } else {
    const bool hashed = options_.num_shards > 1 &&
                        options_.hashed_tables.count(op->ingest.table) > 0;
    size_t reject_policy_skips = 0;
    for (Tuple& row : op->ingest.rows) {
      if (hashed &&
          ShardForRow(row, options_.num_shards) != options_.shard_id) {
        // Broadcast ingest into a hashed table, non-owner shard: the
        // row is stored on its hash owner, but any completeness promise
        // it violates lives wherever its *signature* hashes — possibly
        // here. Under kPolicyRetractPatterns, retract locally without
        // storing — that is what keeps cross-shard retraction exact.
        // Under kPolicyRejectRecord this shard can do nothing sound:
        // the owner decides accept/reject from its local patterns
        // only, so a promise held here may survive a row that violates
        // it. The coordinator refuses that combination outright
        // (docs/DISTRIBUTED.md §5); a writer driving shards directly
        // gets one loud warning per op instead.
        if (op->ingest.policy == IngestRequest::kPolicyRetractPatterns) {
          Status retract = feed.RetractViolated(op->ingest.table, row);
          if (!retract.ok()) {
            status = std::move(retract);
            break;
          }
        } else {
          ++reject_policy_skips;
        }
        continue;
      }
      const size_t rejected_before = feed.stats().records_rejected;
      Status row_status = feed.Ingest(op->ingest.table, std::move(row));
      if (!row_status.ok() &&
          feed.stats().records_rejected == rejected_before) {
        // A real error (unknown table, arity/type mismatch), not a
        // policy rejection: stop here. Rows already applied stay
        // applied; the error tells the client where the batch stopped.
        status = std::move(row_status);
        break;
      }
      // Policy rejections are part of the contract, reported through
      // the ack counters, and do not fail the op.
    }
    if (reject_policy_skips > 0) {
      LogWarn(
          "reject-policy ingest into a hashed table skipped non-owned "
          "rows: promises this shard holds were not checked against "
          "them; the fleet's completeness verdict is owner-local "
          "(docs/DISTRIBUTED.md §5) — use the retract policy")
          .Str("table", op->ingest.table)
          .Unum("rows_skipped", reject_policy_skips)
          .Unum("shard_id", options_.shard_id);
    }
  }
  const FeedStats totals = feed.stats();
  ack->rows_ingested = totals.records_ingested;
  ack->rows_rejected = totals.records_rejected;
  ack->punctuations = totals.punctuations;
  ack->patterns_retracted = totals.patterns_retracted;
  ack->violations = totals.violations;
  return status;
}

void Server::DispatchQuery(LoopState* state, Conn* conn, uint64_t request_id,
                           QueryRequest request, uint64_t admit_micros) {
  auto token = std::make_shared<CancellationToken>();
  conn->tokens[request_id] = token;
  ++state->inflight;
  g_inflight_->Set(static_cast<int64_t>(state->inflight));
  std::shared_ptr<const AnnotatedDatabase> snapshot = Snapshot();
  const uint64_t conn_id = conn->id;
  eval_pool_->Submit(
      [this, conn_id, request_id, request = std::move(request), token,
       snapshot, admit_micros]() mutable {
        RunQueryJob(conn_id, request_id, std::move(request), token, snapshot,
                    admit_micros);
      });
}

void Server::RunQueryJob(uint64_t conn_id, uint64_t request_id,
                         QueryRequest request,
                         std::shared_ptr<CancellationToken> token,
                         std::shared_ptr<const AnnotatedDatabase> snapshot,
                         uint64_t admit_micros) {
  Completion comp;
  comp.conn_id = conn_id;
  comp.request_id = request_id;
  comp.tenant = request.tenant;
  // The job must always post exactly one completion: an exception
  // escaping here would trip the pool's first-error latch and silently
  // skip sibling jobs.
  try {
    WallTimer timer;
    const uint64_t start_micros = Tracer::Global().NowMicros();
    const uint64_t queue_micros =
        start_micros > admit_micros ? start_micros - admit_micros : 0;
    // Adopt the caller's trace context (if the QUERY frame carried one)
    // so server.query and everything under it parent under the remote
    // caller's span — e.g. the coordinator's dist.scatter — in a merged
    // fleet trace.
    TraceContextScope remote_trace_scope(
        TraceContext{request.trace_id, request.parent_span_id});
    PCDB_TRACE_SPAN(query_span, kSpanServerQuery);
    if (Tracer::enabled() && queue_micros > 0) {
      // The wait happened before this span existed; backfill it as a
      // child interval so the viewer shows admit -> eval contiguously.
      Tracer::Global().RecordInterval(kSpanServerQueueWait, admit_micros,
                                      queue_micros);
    }
    const bool want_profile =
        (request.flags & QueryRequest::kFlagProfile) != 0;

    ExecContext ctx;
    ctx.WithCancellationToken(token);
    ctx.WithTraceContext(CurrentTraceContext());
    if (request.deadline_millis > 0) {
      ctx.WithDeadlineAfterMillis(request.deadline_millis);
    }
    if (request.max_rows > 0) ctx.WithRowBudget(request.max_rows);
    if (request.max_patterns > 0) ctx.WithPatternBudget(request.max_patterns);
    if (request.max_memory_bytes > 0) {
      ctx.WithMemoryBudget(request.max_memory_bytes);
    }

    Result<ExprPtr> plan = PlanSql(request.sql, snapshot->database());
    if (!plan.ok()) {
      comp.status = plan.status();
    } else {
      // Per-table dependencies: table epoch + the fold of the
      // pattern-signature epochs comparable with the query's constant
      // mask. A pattern addition under an incomparable signature leaves
      // every component unchanged, so the entry stays hot.
      const std::map<std::string, uint64_t> masks =
          AnswerCache::QueryConstantMasks(**plan, snapshot->database());
      std::vector<std::string> tables = (*plan)->ScannedTables();
      std::vector<AnswerCache::TableDep> deps;
      deps.reserve(tables.size());
      for (const std::string& t : tables) {
        AnswerCache::TableDep dep;
        dep.table = t;
        dep.epoch = snapshot->database().TableEpoch(t);
        auto mask_it = masks.find(t);
        if (mask_it != masks.end()) dep.query_mask = mask_it->second;
        dep.sig_fold = AnswerCache::FoldSignatureEpochs(
            dep.query_mask, snapshot->PatternSigEpochs(t));
        deps.push_back(std::move(dep));
      }
      // kFlagProfile never changes the answer bytes, so it is masked out
      // of the key — a profiled and an unprofiled run share one entry.
      const std::string key = AnswerCache::MakeKey(
          AnswerCache::NormalizeSql(request.sql),
          request.flags & ~QueryRequest::kFlagProfile, request.max_rows,
          request.max_patterns, request.max_memory_bytes, deps);

      std::shared_ptr<const EncodedAnswer> cached;
      if (options_.enable_cache) cached = cache_.Get(key);
      if (cached != nullptr) {
        c_cache_hits_->Increment();
        comp.answer = cached;
        comp.done.degraded = cached->degraded;
        comp.done.cache_hit = true;
        if (want_profile) {
          QueryProfile profile;
          profile.cache_hit = true;
          profile.degraded = cached->degraded;
          profile.queue_micros = queue_micros;
          comp.profile_json = QueryProfileToJson(profile);
        }
      } else {
        if (options_.enable_cache) c_cache_misses_->Increment();
        AnnotatedEvalOptions eval_options;
        eval_options.instance_aware =
            (request.flags & QueryRequest::kFlagInstanceAware) != 0;
        eval_options.zombies =
            (request.flags & QueryRequest::kFlagZombies) != 0;
        eval_options.collect_profile = want_profile;
        AnnotatedEvalInfo info;
        WallTimer eval_timer;
        Result<AnnotatedTable> answer =
            EvaluateAnnotated(**plan, *snapshot, eval_options, ctx, &info);
        const double eval_millis = eval_timer.ElapsedMillis();
        if (!answer.ok()) {
          comp.status = answer.status();
        } else {
          PCDB_TRACE_SPAN(encode_span, kSpanServerEncode);
          auto encoded = std::make_shared<EncodedAnswer>(
              EncodeAnswer(*answer, options_.rows_per_batch));
          Status fits = CheckEncodedFrameSizes(*encoded);
          if (!fits.ok()) {
            // Sending an over-limit frame would be rejected by the
            // client's FrameReader as stream corruption, killing the
            // connection; an explicit error keeps it usable.
            comp.status = std::move(fits);
          } else {
            if (options_.enable_cache) {
              cache_.Put(key, std::move(deps), encoded);
            }
            comp.answer = std::move(encoded);
            comp.done.degraded = answer->degraded;
            comp.done.cache_hit = false;
            comp.done.data_millis = info.data_millis;
            comp.done.pattern_millis = info.pattern_millis;
            if (want_profile) {
              QueryProfile profile = std::move(info.profile);
              profile.cache_hit = false;
              profile.degraded = answer->degraded;
              profile.queue_micros = queue_micros;
              profile.eval_micros = eval_millis * 1000.0;
              comp.profile_json = QueryProfileToJson(profile);
            }
          }
        }
      }
    }
    const double total_millis = timer.ElapsedMillis();
    h_latency_->RecordMillis(total_millis);
    if (options_.slow_query_millis > 0 &&
        total_millis >= options_.slow_query_millis) {
      LogWarn("slow query")
          .Float("millis", total_millis)
          .Float("queue_millis", queue_micros / 1000.0)
          .Unum("request_id", request_id)
          .Str("sql", request.sql);
    }
  } catch (const std::exception& e) {
    comp.status =
        Status::Internal(std::string("query worker exception: ") + e.what());
    comp.answer = nullptr;
  } catch (...) {
    comp.status = Status::Internal("query worker: unknown exception");
    comp.answer = nullptr;
  }
  if (!comp.status.ok()) {
    switch (comp.status.code()) {
      case StatusCode::kCancelled:
        c_cancelled_->Increment();
        break;
      case StatusCode::kTimeout:
        c_timeouts_->Increment();
        break;
      default:
        c_errors_->Increment();
        break;
    }
  }
  PostCompletion(std::move(comp));
}

void Server::PostCompletion(Completion completion) {
  {
    MutexLock lock(&completions_mu_);
    completions_.push_back(std::move(completion));
  }
  wake_.Notify();
}

void Server::ProcessCompletions(LoopState* state) {
  std::vector<Completion> batch;
  {
    MutexLock lock(&completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& comp : batch) {
    // Writes never held a query eval slot, so they don't release one.
    // The slot and the tenant's read-quota unit are released even when
    // the connection is gone: the job ran regardless.
    if (!comp.is_write && state->inflight > 0) --state->inflight;
    if (!comp.is_write) DecTenantRead(state, comp.tenant);
    auto it = state->conns.find(comp.conn_id);
    if (it == state->conns.end()) continue;  // connection went away
    Conn* conn = it->second.get();
    conn->tokens.erase(comp.request_id);
    if (comp.is_write && conn->pending_write_acks > 0) {
      --conn->pending_write_acks;
    }
    if (!comp.status.ok()) {
      AppendFrame(&conn->outbuf, FrameType::kError, comp.request_id,
                  EncodeErrorPayload(comp.status));
    } else if (comp.is_write) {
      AppendFrame(&conn->outbuf, comp.write_ack_type, comp.request_id,
                  comp.write_ack);
    } else {
      const EncodedAnswer& answer = *comp.answer;
      AppendFrame(&conn->outbuf, FrameType::kAnswerSchema, comp.request_id,
                  answer.schema);
      for (const std::string& rows : answer.row_batches) {
        AppendFrame(&conn->outbuf, FrameType::kAnswerRows, comp.request_id,
                    rows);
      }
      AppendFrame(&conn->outbuf, FrameType::kAnswerPatterns, comp.request_id,
                  answer.patterns);
      if (!comp.profile_json.empty()) {
        AppendFrame(&conn->outbuf, FrameType::kAnswerProfile, comp.request_id,
                    comp.profile_json);
      }
      AppendFrame(&conn->outbuf, FrameType::kAnswerDone, comp.request_id,
                  EncodeDonePayload(comp.done));
    }
    FlushWrites(conn);
  }
  g_inflight_->Set(static_cast<int64_t>(state->inflight));
  // Freed slots admit queued queries highest tenant tier first, FIFO
  // (admission order) within a tier — the read mirror of the writer's
  // tier-ordered drain.
  while (state->inflight < options_.max_inflight &&
         !state->admit_fifo.empty()) {
    // Compact first: drop ids whose connection closed or died, and
    // entries beyond the connection's queued count (left behind by a
    // queued-CANCEL, which erases the query but not its fifo entry).
    {
      std::map<uint64_t, size_t> entries;
      std::deque<uint64_t> live;
      for (const uint64_t conn_id : state->admit_fifo) {
        auto it = state->conns.find(conn_id);
        if (it == state->conns.end() || it->second->dead) continue;
        size_t& n = entries[conn_id];
        if (n >= it->second->queued.size()) continue;
        ++n;
        live.push_back(conn_id);
      }
      state->admit_fifo.swap(live);
    }
    if (state->admit_fifo.empty()) break;
    // Pick the highest tier among each connection's *front* queued
    // query (later entries of the same connection are considered once
    // the earlier ones dispatched, preserving per-connection order).
    // `closing` conns keep their slot in line: their queued queries
    // were admitted before the half-close and are still owed an answer.
    size_t best = state->admit_fifo.size();
    uint32_t best_tier = 0;
    std::set<uint64_t> considered;
    for (size_t i = 0; i < state->admit_fifo.size(); ++i) {
      const uint64_t conn_id = state->admit_fifo[i];
      if (!considered.insert(conn_id).second) continue;
      const Conn* conn = state->conns.find(conn_id)->second.get();
      const uint32_t tier = TenantTier(conn->queued.front().request.tenant);
      if (best == state->admit_fifo.size() || tier > best_tier) {
        best = i;
        best_tier = tier;
      }
    }
    const uint64_t conn_id = state->admit_fifo[best];
    state->admit_fifo.erase(state->admit_fifo.begin() +
                            static_cast<std::ptrdiff_t>(best));
    Conn* conn = state->conns.find(conn_id)->second.get();
    Conn::QueuedQuery next = std::move(conn->queued.front());
    conn->queued.pop_front();
    DispatchQuery(state, conn, next.request_id, std::move(next.request),
                  next.admit_micros);
  }
}

void Server::FlushWrites(Conn* conn) {
  if (!conn->HasPendingOutput()) return;
  PCDB_TRACE_SPAN(span, kSpanServerFlush);
  // Self-guarding (like HandleReadable): an injected write fault kills
  // only this connection.
  try {
    while (conn->HasPendingOutput()) {
      Result<IoResult> sent = conn->sock.Send(
          conn->outbuf.data() + conn->out_pos,
          conn->outbuf.size() - conn->out_pos);
      if (!sent.ok()) {
        c_conn_faults_->Increment();
        conn->dead = true;
        return;
      }
      if (sent->would_block) break;
      conn->out_pos += sent->bytes;
    }
    if (!conn->HasPendingOutput()) {
      conn->outbuf.clear();
      conn->out_pos = 0;
    } else if (conn->out_pos >= (1u << 20)) {
      conn->outbuf.erase(0, conn->out_pos);
      conn->out_pos = 0;
    }
  } catch (...) {
    c_conn_faults_->Increment();
    conn->dead = true;
  }
}

}  // namespace pcdb
