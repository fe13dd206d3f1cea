#include "server/server.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
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

Server::Server(AnnotatedDatabase db, ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      db_(std::make_shared<AnnotatedDatabase>(std::move(db))),
      front_end_(options_, this, &metrics_) {
  c_cache_hits_ = metrics_.GetCounter(kMetricCacheHits);
  c_cache_misses_ = metrics_.GetCounter(kMetricCacheMisses);
  c_eval_task_faults_ = metrics_.GetCounter(kMetricEvalTaskFaults);
  c_ingest_rows_ = metrics_.GetCounter(kMetricIngestRowsTotal);
  c_ingest_rejected_ = metrics_.GetCounter(kMetricIngestRejectedTotal);
  c_punctuations_ = metrics_.GetCounter(kMetricPunctuationsTotal);
  c_patterns_retracted_ = metrics_.GetCounter(kMetricPatternsRetractedTotal);
  c_write_batches_ = metrics_.GetCounter(kMetricWriteBatches);
  c_writes_deduped_ = metrics_.GetCounter(kMetricWritesDedupedTotal);
  // Resolve the engine-level counters eagerly: the first EngineMetrics()
  // call also installs the failpoint trip observer, so trips are counted
  // from the very first request.
  EngineMetrics();
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (!options_.wal_dir.empty() && !recovered_) {
    // Before the listener exists: no client may observe pre-recovery
    // state, and a recovery failure leaves nothing half-started.
    PCDB_RETURN_NOT_OK(RecoverFromDurableState());
    recovered_ = true;
  }
  return front_end_.Start();
}

void Server::Stop() { front_end_.Stop(); }

void Server::RequestDrain() { front_end_.RequestDrain(); }

void Server::Drain() {
  if (!front_end_.Drain()) return;
  // Final checkpoint: every accepted write is applied and the pools are
  // quiet, so the snapshot is the complete pre-shutdown state and the
  // next Start() recovers without any replay.
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
  WriteRequest op;
  if (record.type == WalRecordType::kPunctuate) {
    op.is_punctuate = true;
    PCDB_ASSIGN_OR_RETURN(op.punctuate,
                          DecodePunctuatePayload(record.payload));
    op.punctuate.tenant = record.tenant;
  } else {
    PCDB_ASSIGN_OR_RETURN(op.ingest, DecodeIngestPayload(record.payload));
    op.ingest.tenant = record.tenant;
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

bool Server::IsDuplicateWrite(const WriteRequest& op,
                              std::string* ack_payload) {
  const uint64_t writer_id = op.writer_id();
  const uint64_t seq = op.seq();
  if (writer_id == 0 || seq == 0) return false;
  auto tenant_it = writers_.find(op.tenant());
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

void Server::RecordWriterAck(const WriteRequest& op,
                             const IngestResult& ack) {
  const uint64_t writer_id = op.writer_id();
  const uint64_t seq = op.seq();
  if (writer_id == 0 || seq == 0) return;
  IngestResult stored = ack;
  stored.seq = seq;
  stored.duplicate = false;
  CheckpointWriterState state;
  state.last_seq = seq;
  state.ack = EncodeIngestResultPayload(stored);
  writers_[op.tenant()][writer_id] = std::move(state);
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

void Server::Write(WriteRequest request, ReplyCallback done) {
  {
    MutexLock lock(&writes_mu_);
    auto tier = options_.tenant_tiers.find(request.tenant());
    WriteOp op;
    op.request = std::move(request);
    op.done = std::move(done);
    op.tier = tier != options_.tenant_tiers.end() ? tier->second : 0;
    pending_writes_.push_back(std::move(op));
    if (writer_active_) return;
    writer_active_ = true;
  }
  // No writer was running: this worker becomes it until the queue is
  // empty. Other workers' Write() calls only append to the queue.
  RunWriterJob();
}

void Server::RunWriterJob() {
  // Exactly one writer runs at a time (writer_active_); it drains the
  // pending queue in batches, building each next snapshot outside
  // db_mu_ so readers are never blocked by write work.
  for (;;) {
    std::deque<WriteOp> batch;
    {
      MutexLock lock(&writes_mu_);
      if (pending_writes_.empty()) {
        writer_active_ = false;
        return;
      }
      batch.swap(pending_writes_);
    }
    // Highest tenant tier first; stable = FIFO within a tier.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const WriteOp& a, const WriteOp& b) {
                       return a.tier > b.tier;
                     });
    try {
      ApplyWriteBatch(&batch);
    } catch (...) {
      // Defensive: ApplyWriteOp faults are confined per op; this catches
      // infrastructure failures (allocation during the copy, etc.). The
      // ops it never reached keep their failure reply, so no client is
      // left waiting.
      c_eval_task_faults_->Increment();
    }
    // Answered only now, with write_mu_ released: `done` posts to the
    // front end's completion queue.
    for (WriteOp& op : batch) op.done(std::move(op.reply));
  }
}

void Server::ApplyWriteBatch(std::deque<WriteOp>* batch) {
  c_write_batches_->Increment();
  PCDB_TRACE_SPAN(batch_span, kSpanServerWriteBatch);
  batch_span.Arg("ops", batch->size());
  MutexLock write_lock(&write_mu_);
  // Classify: checkpoint admin ops (never WAL-logged), duplicates of
  // already-applied writes (answered from the recorded ack without
  // re-logging or re-applying), and pending data ops.
  std::vector<WriteOp*> checkpoints;
  std::vector<WriteOp*> pending;
  for (WriteOp& op : *batch) {
    if (op.request.is_checkpoint) {
      checkpoints.push_back(&op);
      continue;
    }
    std::string dup_ack;
    if (IsDuplicateWrite(op.request, &dup_ack)) {
      c_writes_deduped_->Increment();
      op.reply = Reply::Single(FrameType::kIngestResult, std::move(dup_ack));
      continue;
    }
    pending.push_back(&op);
  }

  // Group commit: the whole batch becomes one WAL segment write and one
  // fsync, before anything applies — an OK ack implies the write
  // survives a crash.
  if (wal_ != nullptr && !pending.empty()) {
    std::vector<WalRecord> records;
    records.reserve(pending.size());
    for (const WriteOp* op : pending) {
      const WriteRequest& request = op->request;
      WalRecord record;
      record.type = request.is_punctuate ? WalRecordType::kPunctuate
                                         : WalRecordType::kIngest;
      record.tenant = request.tenant();
      record.writer_id = request.writer_id();
      record.seq = request.seq();
      record.payload = request.is_punctuate
                           ? EncodePunctuatePayload(request.punctuate)
                           : EncodeIngestPayload(request.ingest);
      records.push_back(std::move(record));
    }
    Status logged = wal_->AppendBatch(&records);
    if (!logged.ok()) {
      // Nothing from this batch is durable: fail every pending op
      // (acking would promise durability we don't have) and every
      // checkpoint op (truncating a log we could not extend would be
      // exactly backwards). Duplicates already answered keep their
      // success ack — their writes were durable long ago.
      for (WriteOp* op : pending) op->reply = Reply::Error(logged);
      for (WriteOp* op : checkpoints) op->reply = Reply::Error(logged);
      return;
    }
  }

  if (!pending.empty()) {
    std::shared_ptr<const AnnotatedDatabase> base = Snapshot();
    // The copy-on-write copy happens here, outside db_mu_: readers keep
    // taking `base` while we build its successor.
    auto next = std::make_shared<AnnotatedDatabase>(*base);
    for (WriteOp* op : pending) {
      // Second dedup check: a retry batched together with its original
      // slipped past the pre-filter (last_seq was stale at
      // classification) and is now in the WAL — replay performs this
      // same check, so it never double-applies either.
      std::string dup_ack;
      if (IsDuplicateWrite(op->request, &dup_ack)) {
        c_writes_deduped_->Increment();
        op->reply =
            Reply::Single(FrameType::kIngestResult, std::move(dup_ack));
        continue;
      }
      IngestResult result;
      Status status;
      try {
        status = ApplyWriteOp(next.get(), &op->request, &result);
      } catch (const std::exception& e) {
        status = Status::Internal(std::string("write worker exception: ") +
                                  e.what());
      } catch (...) {
        status = Status::Internal("write worker: unknown exception");
      }
      result.seq = op->request.seq();
      c_ingest_rows_->Increment(result.rows_ingested);
      c_ingest_rejected_->Increment(result.rows_rejected);
      c_punctuations_->Increment(result.punctuations);
      c_patterns_retracted_->Increment(result.patterns_retracted);
      // Recorded even when the apply errored: the op is durably logged
      // and replay is deterministic, so a retry must be served "already
      // applied" rather than re-applying a prefix.
      RecordWriterAck(op->request, result);
      op->reply = status.ok()
                      ? Reply::Single(FrameType::kIngestResult,
                                      EncodeIngestResultPayload(result))
                      : Reply::Error(status);
    }
    {
      MutexLock lock(&db_mu_);
      db_ = next;
    }
    InvalidateDiff(*base, *next);
    writes_since_checkpoint_ += pending.size();
  }

  // Checkpoints run after the batch's data ops applied and the snapshot
  // swapped, so the checkpoint includes this batch.
  const bool auto_checkpoint =
      wal_ != nullptr && options_.checkpoint_interval > 0 &&
      writes_since_checkpoint_ >= options_.checkpoint_interval;
  if (!checkpoints.empty() || auto_checkpoint) {
    Result<CheckpointResult> ckpt = CheckpointLocked();
    if (!ckpt.ok() && checkpoints.empty()) {
      LogWarn("automatic checkpoint failed")
          .Str("status", ckpt.status().ToString());
    }
    for (WriteOp* op : checkpoints) {
      op->reply = ckpt.ok()
                      ? Reply::Single(FrameType::kCheckpointResult,
                                      EncodeCheckpointResultPayload(*ckpt))
                      : Reply::Error(ckpt.status());
    }
  }
}

Status Server::ApplyWriteOp(AnnotatedDatabase* next, WriteRequest* op,
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

Reply Server::Query(const QueryRequest& request,
                    const std::shared_ptr<CancellationToken>& token,
                    uint64_t queue_micros) {
  std::shared_ptr<const AnnotatedDatabase> snapshot = Snapshot();
  Reply reply;
  reply.hold = snapshot;
  const bool want_profile = (request.flags & QueryRequest::kFlagProfile) != 0;

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
    reply.status = plan.status();
    return reply;
  }
  // Per-table dependencies: table epoch + the fold of the
  // pattern-signature epochs comparable with the query's constant mask.
  // A pattern addition under an incomparable signature leaves every
  // component unchanged, so the entry stays hot.
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
  // kFlagProfile never changes the answer bytes, so it is masked out of
  // the key — a profiled and an unprofiled run share one entry.
  const std::string key = AnswerCache::MakeKey(
      AnswerCache::NormalizeSql(request.sql),
      request.flags & ~QueryRequest::kFlagProfile, request.max_rows,
      request.max_patterns, request.max_memory_bytes, deps);

  std::shared_ptr<const EncodedAnswer> cached;
  if (options_.enable_cache) cached = cache_.Get(key);
  if (cached != nullptr) {
    c_cache_hits_->Increment();
    reply.answer = cached;
    reply.done.degraded = cached->degraded;
    reply.done.cache_hit = true;
    if (want_profile) {
      QueryProfile profile;
      profile.cache_hit = true;
      profile.degraded = cached->degraded;
      profile.queue_micros = queue_micros;
      reply.profile_json = QueryProfileToJson(profile);
    }
    return reply;
  }
  if (options_.enable_cache) c_cache_misses_->Increment();
  AnnotatedEvalOptions eval_options;
  eval_options.instance_aware =
      (request.flags & QueryRequest::kFlagInstanceAware) != 0;
  eval_options.zombies = (request.flags & QueryRequest::kFlagZombies) != 0;
  eval_options.collect_profile = want_profile;
  AnnotatedEvalInfo info;
  WallTimer eval_timer;
  Result<AnnotatedTable> answer =
      EvaluateAnnotated(**plan, *snapshot, eval_options, ctx, &info);
  const double eval_millis = eval_timer.ElapsedMillis();
  if (!answer.ok()) {
    reply.status = answer.status();
    return reply;
  }
  PCDB_TRACE_SPAN(encode_span, kSpanServerEncode);
  auto encoded = std::make_shared<EncodedAnswer>(
      EncodeAnswer(*answer, options_.rows_per_batch));
  // Sending an over-limit frame would be rejected by the client's
  // FrameReader as stream corruption, killing the connection; an
  // explicit error keeps it usable.
  reply.status = CheckEncodedFrameSizes(*encoded);
  if (!reply.status.ok()) return reply;
  if (options_.enable_cache) cache_.Put(key, std::move(deps), encoded);
  reply.answer = std::move(encoded);
  reply.done.degraded = answer->degraded;
  reply.done.cache_hit = false;
  reply.done.data_millis = info.data_millis;
  reply.done.pattern_millis = info.pattern_millis;
  if (want_profile) {
    QueryProfile profile = std::move(info.profile);
    profile.cache_hit = false;
    profile.degraded = answer->degraded;
    profile.queue_micros = queue_micros;
    profile.eval_micros = eval_millis * 1000.0;
    reply.profile_json = QueryProfileToJson(profile);
  }
  return reply;
}

Reply Server::StatsReply() {
  return Reply::Single(FrameType::kStatsResult, StatsJson());
}

Reply Server::ShardInfoReply() {
  // Shard handshake: this server's placement plus a per-table epoch
  // snapshot. The coordinator uses it to verify its partition map
  // against what each shard believes; the dist CI stage uses the epochs
  // to assert post-recovery convergence.
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
  return Reply::Single(FrameType::kShardInfoResult,
                       EncodeShardInfoPayload(info));
}

}  // namespace pcdb
