#include "server/front_end.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/timer.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace pcdb {

/// A request of a connection's in-order lane: a write, STATS or
/// SHARD_INFO.
struct FrontEnd::Ordered {
  uint64_t request_id = 0;
  FrameType type = FrameType::kStats;
  WriteRequest write;  ///< Valid for INGEST, PUNCTUATE and CHECKPOINT.

  bool is_write() const {
    return type != FrameType::kStats && type != FrameType::kShardInfo;
  }
};

/// One finished job, posted from a worker to the loop.
struct FrontEnd::Completion {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  Reply reply;
  /// A query (releases its eval slot and read-quota unit) or an
  /// in-order request (frees its connection's lane).
  bool is_query = false;
  /// An in-order write: releases its pending-write units.
  bool is_write = false;
  /// The request's tenant, for the quota release.
  std::string tenant;
};

/// Per-connection state. Owned exclusively by the event loop.
struct FrontEnd::Conn {
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
  /// Admitted in-order requests not yet started; one runs at a time.
  std::deque<Ordered> ordered;
  bool ordered_running = false;
  /// No more input will arrive or be processed; answer everything
  /// already admitted, flush the output, then close.
  bool closing = false;
  /// Stop decoding buffered input (the stream is off-protocol). Unlike
  /// plain `closing` (client EOF), buffered frames must NOT be drained.
  bool drop_input = false;
  /// Remove immediately (I/O error or injected fault).
  bool dead = false;

  bool HasPendingOutput() const { return out_pos < outbuf.size(); }
  /// Everything admitted on this connection has been answered.
  bool Idle() const {
    return tokens.empty() && queued.empty() && ordered.empty() &&
           !ordered_running;
  }
};

struct FrontEnd::LoopState {
  std::map<uint64_t, std::unique_ptr<Conn>> conns;
  /// Connections with queued queries, in admission order. May hold
  /// stale ids (connection closed, query cancelled) — skipped on pop.
  std::deque<uint64_t> admit_fifo;
  /// Queries currently on the eval pool.
  size_t inflight = 0;
  /// In-order requests currently on the eval pool.
  size_t ordered_running = 0;
  /// Admitted (in-flight + queued) queries per tenant, for
  /// ServerOptions::tenant_read_quota shedding. Absent = 0.
  std::map<std::string, size_t> tenant_reads;
  /// Admitted, unacknowledged writes: in total and per tenant.
  size_t pending_writes = 0;
  std::map<std::string, size_t> tenant_writes;
  uint64_t next_conn_id = 1;
};

FrontEnd::FrontEnd(const ServerOptions& options, RequestHandler* handler,
                   MetricsRegistry* metrics)
    : options_(options), handler_(handler), metrics_(metrics) {
  c_requests_ = metrics->GetCounter(kMetricRequestsTotal);
  c_shed_ = metrics->GetCounter(kMetricShedTotal);
  c_errors_ = metrics->GetCounter(kMetricErrorsTotal);
  c_cancelled_ = metrics->GetCounter(kMetricCancelledTotal);
  c_timeouts_ = metrics->GetCounter(kMetricTimeoutsTotal);
  c_connections_ = metrics->GetCounter(kMetricConnectionsTotal);
  c_conn_rejected_ = metrics->GetCounter(kMetricConnectionsRejected);
  c_conn_faults_ = metrics->GetCounter(kMetricConnectionFaults);
  c_protocol_errors_ = metrics->GetCounter(kMetricProtocolErrors);
  c_eval_task_faults_ = metrics->GetCounter(kMetricEvalTaskFaults);
  c_poll_errors_ = metrics->GetCounter(kMetricPollErrors);
  c_writes_shed_ = metrics->GetCounter(kMetricWritesShedTotal);
  c_queries_shed_ = metrics->GetCounter(kMetricQueriesShedTotal);
  g_connections_ = metrics->GetGauge(kMetricConnectionsOpen);
  g_inflight_ = metrics->GetGauge(kMetricInflight);
  g_pending_writes_ = metrics->GetGauge(kMetricPendingWrites);
  h_latency_ = metrics->GetHistogram(kMetricRequestLatency);
}

FrontEnd::~FrontEnd() { Stop(); }

Status FrontEnd::Start() {
  {
    MutexLock lock(&state_mu_);
    if (started_) return Status::InvalidArgument("server already started");
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

void FrontEnd::Stop() {
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
  // a successor process (or a fresh server in the same test binary) may
  // bind the same port immediately, e.g. to recover this server's WAL.
  listener_ = Listener();
  {
    // Everything is quiescent; allow a fresh Start() (rebinds the
    // listener, possibly on a different ephemeral port).
    MutexLock lock(&state_mu_);
    started_ = false;
  }
}

void FrontEnd::RequestDrain() {
  // Called from signal handlers: everything here must stay
  // async-signal-safe — a relaxed/release atomic store and the wake
  // pipe's single write(2). No locks, no allocation, no logging.
  drain_requested_.store(true, std::memory_order_release);
  wake_.Notify();
}

bool FrontEnd::Drain() {
  {
    MutexLock lock(&state_mu_);
    if (!started_) return false;
  }
  RequestDrain();
  {
    // The loop exits on its own once admitted work is answered (or the
    // drain deadline passes); Stop() below then only joins the pools.
    MutexLock lock(&state_mu_);
    while (!loop_done_) state_cv_.Wait(lock);
  }
  Stop();
  drain_requested_.store(false, std::memory_order_release);
  return true;
}

void FrontEnd::RunLoop() {
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
    // admitted request has been answered AND the answers are flushed —
    // the "flush what we owe" contract for clients that half-close and
    // wait for their answers.
    for (auto it = state.conns.begin(); it != state.conns.end();) {
      Conn* conn = it->second.get();
      const bool drained =
          conn->closing && !conn->HasPendingOutput() && conn->Idle();
      if (conn->dead || drained) {
        // In-flight queries of a dead connection are orphaned: cancel
        // so the workers stop early; their completions are dropped when
        // the conn id no longer resolves. (Drained conns have none.)
        // Requests still waiting die with the connection and never post
        // a completion, so release their quota units here (running ones
        // release theirs when the completion arrives).
        for (auto& [rid, token] : conn->tokens) token->Cancel();
        for (const Conn::QueuedQuery& q : conn->queued) {
          DecTenantRead(&state, q.request.tenant);
        }
        for (const Ordered& o : conn->ordered) {
          if (o.is_write()) ReleaseWrite(&state, o.write.tenant());
        }
        it = state.conns.erase(it);
        g_connections_->Add(-1);
      } else {
        ++it;
      }
    }

    if (draining) {
      const bool all_answered = state.conns.empty() && state.inflight == 0 &&
                                state.ordered_running == 0;
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

void FrontEnd::AcceptNewConnections(LoopState* state) {
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

void FrontEnd::HandleReadable(LoopState* state, Conn* conn) {
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

void FrontEnd::HandleFrame(LoopState* state, Conn* conn, Frame frame) {
  PCDB_TRACE_SPAN(span, kSpanServerFrame);
  // Payload decode failures are answered with one ERROR frame; the
  // connection stays usable.
  const auto reject = [&](const Status& status) {
    c_protocol_errors_->Increment();
    AppendFrame(&conn->outbuf, FrameType::kError, frame.request_id,
                EncodeErrorPayload(status));
  };
  Ordered ordered;
  ordered.request_id = frame.request_id;
  ordered.type = frame.type;
  switch (frame.type) {
    case FrameType::kPing:
      AppendFrame(&conn->outbuf, FrameType::kPong, frame.request_id, "");
      return;
    case FrameType::kCancel: {
      Result<uint64_t> target = DecodeCancelPayload(frame.payload);
      if (!target.ok()) return reject(target.status());
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
      // In flight? Flip the token; the handler answers with kCancelled
      // through the normal completion path. Unknown ids (already
      // answered, never sent) are a silent no-op per protocol.
      auto it = conn->tokens.find(*target);
      if (it != conn->tokens.end()) it->second->Cancel();
      return;
    }
    case FrameType::kQuery: {
      Result<QueryRequest> request = DecodeQueryPayload(frame.payload);
      if (!request.ok()) return reject(request.status());
      AdmitOrShed(state, conn, frame.request_id, std::move(*request));
      return;
    }
    case FrameType::kIngest: {
      Result<IngestRequest> request = DecodeIngestPayload(frame.payload);
      if (!request.ok()) return reject(request.status());
      ordered.write.ingest = std::move(*request);
      break;
    }
    case FrameType::kPunctuate: {
      Result<PunctuateRequest> request =
          DecodePunctuatePayload(frame.payload);
      if (!request.ok()) return reject(request.status());
      ordered.write.is_punctuate = true;
      ordered.write.punctuate = std::move(*request);
      break;
    }
    case FrameType::kCheckpoint:
      ordered.write.is_checkpoint = true;
      break;
    case FrameType::kStats:
    case FrameType::kShardInfo:
      break;
    default:
      // A client sending server-side frame types is off-protocol.
      reject(Status::InvalidArgument("unexpected frame type from client"));
      conn->closing = true;
      conn->drop_input = true;
      return;
  }
  AdmitOrdered(state, conn, std::move(ordered));
}

void FrontEnd::AdmitOrShed(LoopState* state, Conn* conn, uint64_t request_id,
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
          ->GetCounter(std::string(kMetricQueriesShedTotal) + "." +
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

void FrontEnd::DecTenantRead(LoopState* state, const std::string& tenant) {
  if (options_.tenant_read_quota == 0) return;
  auto it = state->tenant_reads.find(tenant);
  if (it != state->tenant_reads.end() && --(it->second) == 0) {
    state->tenant_reads.erase(it);
  }
}

void FrontEnd::ReleaseWrite(LoopState* state, const std::string& tenant) {
  if (state->pending_writes > 0) --state->pending_writes;
  g_pending_writes_->Set(static_cast<int64_t>(state->pending_writes));
  auto it = state->tenant_writes.find(tenant);
  if (it != state->tenant_writes.end() && --(it->second) == 0) {
    state->tenant_writes.erase(it);
  }
}

uint32_t FrontEnd::TenantTier(const std::string& tenant) const {
  auto it = options_.tenant_tiers.find(tenant);
  return it != options_.tenant_tiers.end() ? it->second : 0;
}

void FrontEnd::AdmitOrdered(LoopState* state, Conn* conn, Ordered request) {
  if (request.is_write()) {
    c_requests_->Increment();
    const std::string& tenant = request.write.tenant();
    Status shed;
    if (state->pending_writes >= options_.max_pending_writes) {
      shed = Status::Unavailable("write queue full: " +
                                 std::to_string(state->pending_writes) +
                                 " pending writes");
    } else if (options_.tenant_write_quota > 0 &&
               state->tenant_writes[tenant] >= options_.tenant_write_quota) {
      shed = Status::Unavailable("write quota exhausted for tenant '" +
                                 tenant + "'");
    }
    if (!shed.ok()) {
      // Load shed, like queries: an explicit retryable error, never a
      // silent drop — and per tenant, so one flooding feed cannot crowd
      // out its neighbours (or queries, which never queue here at all).
      c_writes_shed_->Increment();
      AppendFrame(&conn->outbuf, FrameType::kError, request.request_id,
                  EncodeErrorPayload(shed));
      return;
    }
    ++state->pending_writes;
    ++state->tenant_writes[tenant];
    g_pending_writes_->Set(static_cast<int64_t>(state->pending_writes));
  }
  conn->ordered.push_back(std::move(request));
  StartOrdered(state, conn);
}

void FrontEnd::StartOrdered(LoopState* state, Conn* conn) {
  if (conn->ordered_running || conn->ordered.empty()) return;
  conn->ordered_running = true;
  ++state->ordered_running;
  const uint64_t conn_id = conn->id;
  eval_pool_->Submit(
      [this, conn_id, request = std::move(conn->ordered.front())]() mutable {
        RunOrderedJob(conn_id, std::move(request));
      });
  conn->ordered.pop_front();
}

void FrontEnd::DispatchQuery(LoopState* state, Conn* conn,
                             uint64_t request_id, QueryRequest request,
                             uint64_t admit_micros) {
  auto token = std::make_shared<CancellationToken>();
  conn->tokens[request_id] = token;
  ++state->inflight;
  g_inflight_->Set(static_cast<int64_t>(state->inflight));
  const uint64_t conn_id = conn->id;
  eval_pool_->Submit([this, conn_id, request_id, request = std::move(request),
                      token, admit_micros]() mutable {
    RunQueryJob(conn_id, request_id, std::move(request), token, admit_micros);
  });
}

void FrontEnd::RunQueryJob(uint64_t conn_id, uint64_t request_id,
                           QueryRequest request,
                           std::shared_ptr<CancellationToken> token,
                           uint64_t admit_micros) {
  Completion comp;
  comp.conn_id = conn_id;
  comp.request_id = request_id;
  comp.is_query = true;
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
    comp.reply = handler_->Query(request, token, queue_micros);
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
    comp.reply = Reply::Error(
        Status::Internal(std::string("query worker exception: ") + e.what()));
  } catch (...) {
    comp.reply =
        Reply::Error(Status::Internal("query worker: unknown exception"));
  }
  std::shared_ptr<const void> hold = std::move(comp.reply.hold);
  PostCompletion(std::move(comp));
}

void FrontEnd::RunOrderedJob(uint64_t conn_id, Ordered request) {
  Completion comp;
  comp.conn_id = conn_id;
  comp.request_id = request.request_id;
  comp.is_write = request.is_write();
  comp.tenant = request.write.tenant();
  // Exactly one completion per job, whichever of the handler's paths
  // (or a throw out of it) delivers the reply first.
  auto answered = std::make_shared<std::atomic<bool>>(false);
  ReplyCallback done = [this, comp, answered](Reply reply) mutable {
    if (answered->exchange(true)) return;
    comp.reply = std::move(reply);
    PostCompletion(std::move(comp));
  };
  try {
    switch (request.type) {
      case FrameType::kStats:
        done(handler_->StatsReply());
        break;
      case FrameType::kShardInfo:
        done(handler_->ShardInfoReply());
        break;
      default:
        handler_->Write(std::move(request.write), done);
        break;
    }
  } catch (const std::exception& e) {
    done(Reply::Error(Status::Internal(
        std::string("request worker exception: ") + e.what())));
  } catch (...) {
    done(Reply::Error(Status::Internal("request worker: unknown exception")));
  }
}

void FrontEnd::PostCompletion(Completion completion) {
  {
    MutexLock lock(&completions_mu_);
    completions_.push_back(std::move(completion));
  }
  wake_.Notify();
}

void FrontEnd::ProcessCompletions(LoopState* state) {
  std::vector<Completion> batch;
  {
    MutexLock lock(&completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& comp : batch) {
    // The eval slot and the quota units are released even when the
    // connection is gone: the job ran regardless.
    if (comp.is_query) {
      if (state->inflight > 0) --state->inflight;
      DecTenantRead(state, comp.tenant);
    } else {
      if (state->ordered_running > 0) --state->ordered_running;
      if (comp.is_write) ReleaseWrite(state, comp.tenant);
    }
    const Reply& reply = comp.reply;
    if (!reply.status.ok()) {
      switch (reply.status.code()) {
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
    auto it = state->conns.find(comp.conn_id);
    if (it == state->conns.end()) continue;  // connection went away
    Conn* conn = it->second.get();
    if (comp.is_query) {
      conn->tokens.erase(comp.request_id);
    } else {
      conn->ordered_running = false;
      StartOrdered(state, conn);
    }
    if (!reply.status.ok()) {
      AppendFrame(&conn->outbuf, FrameType::kError, comp.request_id,
                  EncodeErrorPayload(reply.status));
    } else if (reply.answer == nullptr) {
      AppendFrame(&conn->outbuf, reply.type, comp.request_id, reply.payload);
    } else {
      const EncodedAnswer& answer = *reply.answer;
      AppendFrame(&conn->outbuf, FrameType::kAnswerSchema, comp.request_id,
                  answer.schema);
      for (const std::string& rows : answer.row_batches) {
        AppendFrame(&conn->outbuf, FrameType::kAnswerRows, comp.request_id,
                    rows);
      }
      AppendFrame(&conn->outbuf, FrameType::kAnswerPatterns, comp.request_id,
                  answer.patterns);
      if (!reply.profile_json.empty()) {
        AppendFrame(&conn->outbuf, FrameType::kAnswerProfile, comp.request_id,
                    reply.profile_json);
      }
      AppendFrame(&conn->outbuf, FrameType::kAnswerDone, comp.request_id,
                  EncodeDonePayload(reply.done));
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

void FrontEnd::FlushWrites(Conn* conn) {
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
