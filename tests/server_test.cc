#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace_context.h"
#include "pattern/annotated_eval.h"
#include "pattern/shard_route.h"
#include "server/client.h"
#include "server/net_socket.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/planner.h"
#include "workloads/maintenance_example.h"

namespace pcdb {
namespace {

constexpr const char* kQhwSql =
    "SELECT * FROM Warnings W JOIN Maintenance M ON W.ID=M.ID "
    "JOIN Teams T ON M.responsible=T.name "
    "WHERE W.week=2 AND T.specialization='hardware'";

// Captures structured log lines emitted by server threads (the sink is
// a plain function pointer, so the buffer is a locked global).
Mutex g_server_log_mu;
std::string g_server_log_capture PCDB_GUARDED_BY(g_server_log_mu);

void CaptureServerLogLine(const std::string& line) {
  MutexLock lock(&g_server_log_mu);
  g_server_log_capture += line;
  g_server_log_capture += '\n';
}

/// Disarms every failpoint a test armed, then re-arms the process's
/// PCDB_FAILPOINTS spec, so an injection sweep over this binary
/// (tools/ci.sh faults) reaches every test rather than none.
void ResetFailpointsToEnvironment() {
  Failpoints::Global().Clear();
  const char* env = std::getenv("PCDB_FAILPOINTS");
  if (env != nullptr) {
    EXPECT_TRUE(Failpoints::Global().ActivateFromString(env).ok()) << env;
  }
}

/// End-to-end serve-path tests: a real Server on an ephemeral loopback
/// port, exercised through the real Client. Failpoints are global, so
/// every test starts and ends with only the environment's armed.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetFailpointsToEnvironment(); }
  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    ResetFailpointsToEnvironment();
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(MakeMaintenanceDatabase(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client ConnectOrDie() {
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// The reference answer: governed in-process evaluation with exactly
  /// the server's evaluation options, serialized with the server's
  /// batching. The wire answer must reproduce these bytes exactly.
  static std::string InProcessCanonicalBytes(const std::string& sql,
                                             uint64_t max_patterns = 0,
                                             size_t rows_per_batch = 256) {
    AnnotatedDatabase adb = MakeMaintenanceDatabase();
    Result<ExprPtr> plan = PlanSql(sql, adb.database());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return "";
    ExecContext ctx;
    if (max_patterns > 0) ctx.WithPatternBudget(max_patterns);
    AnnotatedEvalOptions options;  // matches ServerOptions defaults
    Result<AnnotatedTable> answer =
        EvaluateAnnotated(**plan, adb, options, ctx);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    if (!answer.ok()) return "";
    return EncodeAnswer(*answer, rows_per_batch).CanonicalBytes();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingAndStats) {
  StartServer();
  Client client = ConnectOrDie();
  EXPECT_TRUE(client.Ping().ok());
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"requests_total\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"cache\""), std::string::npos) << *stats;
}

TEST_F(ServerTest, WireAnswerIsByteIdenticalToInProcessEvaluation) {
  StartServer();
  Client client = ConnectOrDie();
  Result<ClientAnswer> answer = client.Query(kQhwSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->canonical_bytes, InProcessCanonicalBytes(kQhwSql));
  EXPECT_GT(answer->table.data.num_rows(), 0u);
  EXPECT_GT(answer->table.patterns.size(), 0u);
  EXPECT_FALSE(answer->done.degraded);
}

TEST_F(ServerTest, EvaluationErrorsArriveWithInProcessCodeAndMessage) {
  StartServer();
  Client client = ConnectOrDie();

  // The same parse/plan failures the in-process API returns, code and
  // message byte-for-byte (satellite 3's contract).
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  for (const char* bad :
       {"SELECT * FROM NoSuchTable", "SELECT * FROM", "garbage"}) {
    Status in_process = PlanSql(bad, adb.database()).status();
    ASSERT_FALSE(in_process.ok()) << bad;
    Result<ClientAnswer> remote = client.Query(bad);
    ASSERT_FALSE(remote.ok()) << bad;
    EXPECT_EQ(remote.status().code(), in_process.code()) << bad;
    EXPECT_EQ(remote.status().ToString(), in_process.ToString()) << bad;
  }
  // The connection survives evaluation errors.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, SixtyFourConcurrentConnectionsNoCorruptedFrames) {
  StartServer();
  const std::string expected = InProcessCanonicalBytes(kQhwSql);
  constexpr int kConnections = 64;
  constexpr int kQueriesEach = 3;
  std::atomic<int> failures{0};
  std::atomic<int> answers{0};
  {
    ThreadPool pool(static_cast<size_t>(kConnections));
    for (int c = 0; c < kConnections; ++c) {
      pool.Submit([this, &expected, &failures, &answers] {
        Result<Client> client =
            Client::Connect("127.0.0.1", server_->port());
        if (!client.ok()) {
          failures.fetch_add(kQueriesEach);
          return;
        }
        for (int q = 0; q < kQueriesEach; ++q) {
          Result<ClientAnswer> answer = client->Query(kQhwSql);
          if (!answer.ok() || answer->canonical_bytes != expected) {
            failures.fetch_add(1);
          } else {
            answers.fetch_add(1);
          }
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(answers.load(), kConnections * kQueriesEach);
  EXPECT_EQ(server_->metrics().CounterValue("requests_total"),
            static_cast<uint64_t>(kConnections * kQueriesEach));
  EXPECT_EQ(server_->metrics().CounterValue("shed_total"), 0u);
  EXPECT_EQ(server_->metrics().CounterValue("protocol_errors"), 0u);
}

TEST_F(ServerTest, MidQueryCancelReturnsCancelled) {
  StartServer();
  Client client = ConnectOrDie();
  // ~100ms per plan node makes Q_hw slow enough that the CANCEL frame
  // overtakes it on the event loop with huge margin.
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(100));
  Result<uint64_t> id = client.SendQuery(kQhwSql);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(client.Cancel(*id).ok());
  Result<ClientAnswer> answer = client.ReadAnswer(*id);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
      << answer.status().ToString();
  EXPECT_EQ(server_->metrics().CounterValue("cancelled_total"), 1u);
  // The connection is still serviceable.
  Failpoints::Global().Clear();
  EXPECT_TRUE(client.Query(kQhwSql).ok());
}

TEST_F(ServerTest, DeadlineExpiryReturnsTimeout) {
  StartServer();
  Client client = ConnectOrDie();
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(100));
  ClientQueryOptions options;
  options.deadline_millis = 20;
  Result<ClientAnswer> answer = client.Query(kQhwSql, options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kTimeout)
      << answer.status().ToString();
  EXPECT_EQ(server_->metrics().CounterValue("timeouts_total"), 1u);
}

TEST_F(ServerTest, DegradedFlagPropagatesOverTheWire) {
  StartServer();
  Client client = ConnectOrDie();
  ClientQueryOptions options;
  options.max_patterns = 2;  // Q_hw yields 12 exact patterns
  Result<ClientAnswer> answer = client.Query(kQhwSql, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->done.degraded);
  EXPECT_TRUE(answer->table.degraded);
  EXPECT_LE(answer->table.patterns.size(), 2u);
  // Degraded answers obey the same byte-identity contract.
  EXPECT_EQ(answer->canonical_bytes,
            InProcessCanonicalBytes(kQhwSql, /*max_patterns=*/2));
  // The degraded byte closes the canonical stream.
  ASSERT_FALSE(answer->canonical_bytes.empty());
  EXPECT_EQ(answer->canonical_bytes.back(), 1);
}

TEST_F(ServerTest, RepeatedQueryHitsTheCacheAndMutationInvalidates) {
  StartServer();
  Client client = ConnectOrDie();

  Result<ClientAnswer> first = client.Query(kQhwSql);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->done.cache_hit);

  Result<ClientAnswer> second = client.Query(kQhwSql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->done.cache_hit);
  EXPECT_EQ(second->canonical_bytes, first->canonical_bytes);
  EXPECT_EQ(server_->metrics().CounterValue("cache_hits"), 1u);
  EXPECT_EQ(server_->metrics().CounterValue("cache_misses"), 1u);

  // Incidental reformatting still hits (normalized-SQL keying).
  Result<ClientAnswer> reformatted = client.Query(
      std::string("  ") + kQhwSql + " ;");
  ASSERT_TRUE(reformatted.ok());
  EXPECT_TRUE(reformatted->done.cache_hit);

  // A mutation bumps the table epoch: the entry is invalidated eagerly
  // and the next query re-evaluates against the new snapshot.
  ASSERT_TRUE(server_
                  ->UpdateDatabase([](AnnotatedDatabase* adb) {
                    return adb->AddRow("Warnings",
                                       {"Thu", 2, "tw140", "new warning"});
                  })
                  .ok());
  EXPECT_GE(server_->cache().GetStats().invalidations, 1u);
  Result<ClientAnswer> third = client.Query(kQhwSql);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->done.cache_hit);
}

TEST_F(ServerTest, ProfileFlagDeliversAProfileWithoutPerturbingTheAnswer) {
  StartServer();
  Client client = ConnectOrDie();
  ClientQueryOptions options;
  options.profile = true;
  Result<ClientAnswer> profiled = client.Query(kQhwSql, options);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_FALSE(profiled->profile.empty());
  // The payload is the server-side QueryProfileToJson rendering,
  // delivered verbatim: per-operator rows/patterns plus request-level
  // timings, with a cache miss on the first evaluation.
  EXPECT_NE(profiled->profile.find("\"cache_hit\":false"),
            std::string::npos)
      << profiled->profile;
  EXPECT_NE(profiled->profile.find("\"operators\":[{"), std::string::npos);
  EXPECT_NE(profiled->profile.find("\"op\":\"scan\""), std::string::npos);
  EXPECT_NE(profiled->profile.find("\"op\":\"join\""), std::string::npos);
  EXPECT_NE(profiled->profile.find("\"eval_micros\":"), std::string::npos);
  EXPECT_NE(profiled->profile.find("\"queue_micros\":"), std::string::npos);
  // Profiling never perturbs the answer: the canonical bytes match the
  // in-process evaluation exactly, profile or not.
  EXPECT_EQ(profiled->canonical_bytes, InProcessCanonicalBytes(kQhwSql));
  // Without the flag, no ANSWER_PROFILE frame arrives.
  Result<ClientAnswer> plain = client.Query(kQhwSql);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->profile.empty());
}

TEST_F(ServerTest, ProfiledAndPlainQueriesShareOneCacheEntry) {
  StartServer();
  Client client = ConnectOrDie();
  ASSERT_TRUE(client.Query(kQhwSql).ok());  // populate the cache
  ClientQueryOptions options;
  options.profile = true;
  Result<ClientAnswer> hit = client.Query(kQhwSql, options);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  // The profile flag is masked out of the cache key: the profiled
  // re-query hits the entry the plain query stored, and the profile
  // reports the hit (no operators ran).
  EXPECT_TRUE(hit->done.cache_hit);
  EXPECT_NE(hit->profile.find("\"cache_hit\":true"), std::string::npos)
      << hit->profile;
  EXPECT_NE(hit->profile.find("\"operators\":[]"), std::string::npos)
      << hit->profile;
  EXPECT_EQ(server_->metrics().CounterValue("cache_hits"), 1u);
}

TEST_F(ServerTest, StatsIncludesEngineMetricsAndHistogramBuckets) {
  StartServer();
  Client client = ConnectOrDie();
  ASSERT_TRUE(client.Query(kQhwSql).ok());
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"engine\":{"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"engine_patterns_minimized\":"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"buckets\":["), std::string::npos) << *stats;
}

TEST_F(ServerTest, SlowQueryThresholdEmitsAStructuredWarning) {
  ServerOptions options;
  options.slow_query_millis = 0.000001;  // everything is "slow"
  StartServer(options);
  {
    MutexLock lock(&g_server_log_mu);
    g_server_log_capture.clear();
  }
  SetLogSink(&CaptureServerLogLine);
  Client client = ConnectOrDie();
  Result<ClientAnswer> answer = client.Query(kQhwSql);
  SetLogSink(nullptr);
  ASSERT_TRUE(answer.ok());
  // The warning is emitted on the evaluation thread before the
  // completion is posted, so it is visible once the answer arrived.
  std::string captured;
  {
    MutexLock lock(&g_server_log_mu);
    captured = g_server_log_capture;
  }
  EXPECT_NE(captured.find("\"msg\":\"slow query\""), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("\"sql\":"), std::string::npos) << captured;
  EXPECT_NE(captured.find("\"millis\":"), std::string::npos) << captured;
}

TEST_F(ServerTest, SlowQueryWarningCarriesTheCallersTraceContext) {
  ServerOptions options;
  options.slow_query_millis = 0.000001;  // everything is "slow"
  StartServer(options);
  {
    MutexLock lock(&g_server_log_mu);
    g_server_log_capture.clear();
  }
  SetLogSink(&CaptureServerLogLine);
  Client client = ConnectOrDie();
  // An ambient trace context on the calling thread rides the QUERY
  // frame (client injection), is adopted server-side, and must land in
  // the slow-query warning — that is how a fleet operator gets from a
  // slow-query log line to the matching trace.
  Result<ClientAnswer> answer = Status::Internal("not queried");
  {
    TraceContextScope scope(TraceContext{424242, 99});
    answer = client.Query(kQhwSql);
  }
  SetLogSink(nullptr);
  ASSERT_TRUE(answer.ok());
  std::string captured;
  {
    MutexLock lock(&g_server_log_mu);
    captured = g_server_log_capture;
  }
  const size_t warn = captured.find("\"msg\":\"slow query\"");
  ASSERT_NE(warn, std::string::npos) << captured;
  const std::string line =
      captured.substr(warn, captured.find('\n', warn) - warn);
  EXPECT_NE(line.find("\"trace_id\":424242"), std::string::npos) << line;
  EXPECT_NE(line.find("\"span_id\":"), std::string::npos) << line;
}

TEST_F(ServerTest, OverloadShedsWithUnavailable) {
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queued_per_connection = 0;
  StartServer(options);
  Client busy = ConnectOrDie();
  Client rejected = ConnectOrDie();

  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(100));
  Result<uint64_t> slow = busy.SendQuery(kQhwSql);
  ASSERT_TRUE(slow.ok());
  // Let the loop dispatch the slow query before the second one arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Result<ClientAnswer> shed = rejected.Query(kQhwSql);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  EXPECT_EQ(server_->metrics().CounterValue("shed_total"), 1u);

  // The occupied slot still answers correctly.
  Result<ClientAnswer> slow_answer = busy.ReadAnswer(*slow);
  ASSERT_TRUE(slow_answer.ok()) << slow_answer.status().ToString();
}

TEST_F(ServerTest, QueuedQueryRunsWhenASlotFrees) {
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queued_per_connection = 4;
  StartServer(options);
  Client client = ConnectOrDie();
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(20));
  // Pipeline three queries on one connection: one runs, two queue, all
  // three answer in order.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> id = client.SendQuery(kQhwSql);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (uint64_t id : ids) {
    Result<ClientAnswer> answer = client.ReadAnswer(id);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  }
  EXPECT_EQ(server_->metrics().CounterValue("shed_total"), 0u);
}

TEST_F(ServerTest, HalfCloseDrainsPipelinedQueriesThenCloses) {
  ServerOptions options;
  options.max_inflight = 2;
  options.max_queued_per_connection = 16;
  StartServer(options);
  Client client = ConnectOrDie();
  // Per-operator latency keeps most of the pipeline queued or in flight
  // when the half-close reaches the server.
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(10));
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    Result<uint64_t> id = client.SendQuery(kQhwSql);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // shutdown(SHUT_WR): the server sees EOF but still owes 8 answers —
  // it must drain every buffered frame and keep the in-flight and
  // queued queries alive until their answers are flushed.
  ASSERT_TRUE(client.FinishSending().ok());
  const std::string expected = InProcessCanonicalBytes(kQhwSql);
  for (uint64_t id : ids) {
    Result<ClientAnswer> answer = client.ReadAnswer(id);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->canonical_bytes, expected);
  }
  EXPECT_EQ(server_->metrics().CounterValue("cancelled_total"), 0u);
}

TEST_F(ServerTest, RejectsConnectionsBeyondTheCap) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  Client first = ConnectOrDie();
  ASSERT_TRUE(first.Ping().ok());
  // A surplus connection is accepted and immediately closed: the
  // client observes EOF on its next read instead of hanging in the
  // kernel backlog.
  Result<Client> surplus = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(surplus.ok()) << surplus.status().ToString();
  EXPECT_FALSE(surplus->Ping().ok());
  EXPECT_GE(server_->metrics().CounterValue("connections_rejected"), 1u);
  // The admitted connection is untouched.
  EXPECT_TRUE(first.Ping().ok());
}

TEST_F(ServerTest, RestartAfterStopServesAgain) {
  StartServer();
  {
    Client client = ConnectOrDie();
    ASSERT_TRUE(client.Query(kQhwSql).ok());
  }
  server_->Stop();
  ASSERT_TRUE(server_->Start().ok()) << "restart after Stop must succeed";
  Client client = ConnectOrDie();
  Result<ClientAnswer> answer = client.Query(kQhwSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->canonical_bytes, InProcessCanonicalBytes(kQhwSql));
  // Cache and metrics carry over: the pre-restart entry still hits.
  EXPECT_TRUE(answer->done.cache_hit);
  // But a double Start on a running server is still an error.
  EXPECT_FALSE(server_->Start().ok());
}

TEST_F(ServerTest, MalformedFrameClosesOnlyThatConnection) {
  StartServer();
  Client healthy = ConnectOrDie();
  ASSERT_TRUE(healthy.Ping().ok());

  Result<Socket> raw = TcpConnect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetRecvTimeoutMillis(5000).ok());
  // A syntactically valid header with an unknown frame type: stream
  // corruption the decoder must reject.
  std::string garbage;
  garbage.append(4, '\0');                      // payload_len = 0
  garbage.push_back(static_cast<char>(0x55));   // not a FrameType
  garbage.append(8, '\0');                      // request id
  ASSERT_TRUE(raw->SendAll(garbage.data(), garbage.size()).ok());

  // The server answers with one ERROR frame, then closes.
  char header[13];
  ASSERT_TRUE(raw->RecvExact(header, sizeof(header)).ok());
  EXPECT_EQ(static_cast<uint8_t>(header[4]),
            static_cast<uint8_t>(FrameType::kError));
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, header, 4);
  std::string payload(payload_len, '\0');
  ASSERT_TRUE(raw->RecvExact(payload.data(), payload.size()).ok());
  Status remote;
  ASSERT_TRUE(DecodeErrorPayload(payload, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument);
  char extra;
  Result<IoResult> eof = raw->Recv(&extra, 1);
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof->eof);

  // The sibling connection and the listener never noticed.
  EXPECT_TRUE(healthy.Ping().ok());
  EXPECT_TRUE(ConnectOrDie().Ping().ok());
  EXPECT_EQ(server_->metrics().CounterValue("protocol_errors"), 1u);
}

TEST_F(ServerTest, ReadFaultOnOneConnectionDoesNotAffectSiblings) {
  StartServer();
  Client healthy = ConnectOrDie();
  ASSERT_TRUE(healthy.Ping().ok());

  // A raw victim connection (the Client's own Recv shares the global
  // failpoint registry and must not consume the injected fault).
  Result<Socket> victim = TcpConnect("127.0.0.1", server_->port());
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(victim->SetRecvTimeoutMillis(5000).ok());
  std::string ping;
  AppendFrame(&ping, FrameType::kPing, 1, "");
  Failpoints::Global().Activate("server.read",
                                FailpointSpec::Error().Once());
  ASSERT_TRUE(victim->SendAll(ping.data(), ping.size()).ok());
  // Give the loop time to hit the fault on the victim's readable socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Failpoints::Global().Clear();

  // The victim was torn down: either a clean EOF or ECONNRESET (the
  // server closed with the ping still unread in its kernel buffer).
  char buf;
  Result<IoResult> read_back = victim->Recv(&buf, 1);
  EXPECT_TRUE(!read_back.ok() || read_back->eof);
  // ...while the listener and the sibling keep serving.
  EXPECT_TRUE(healthy.Ping().ok());
  EXPECT_TRUE(ConnectOrDie().Ping().ok());
  EXPECT_GE(server_->metrics().CounterValue("connection_faults"), 1u);
}

TEST_F(ServerTest, ShortReadFaultStillDeliversIntactAnswers) {
  StartServer();
  const std::string expected = InProcessCanonicalBytes(kQhwSql);
  Client client = ConnectOrDie();
  // Byte-at-a-time reads on the server: framing must reassemble.
  Failpoints::Global().Activate("server.read.short",
                                FailpointSpec::Sleep(0));
  Result<ClientAnswer> answer = client.Query(kQhwSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->canonical_bytes, expected);
}

// ---------------------------------------------------------------------------
// Streaming write path: INGEST / PUNCTUATE.

TEST_F(ServerTest, IngestAppliesRowsAndPoliciesOverTheWire) {
  StartServer();
  Client client = ConnectOrDie();

  // A clean row (week 3 violates no promise) lands and is queryable.
  Result<IngestResult> ack = client.Ingest(
      "Warnings", {Tuple{Value("Thu"), Value(int64_t{3}), Value("tw99"),
                         Value("scheduled check")}});
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->rows_ingested, 1u);
  EXPECT_EQ(ack->violations, 0u);
  Result<ClientAnswer> all =
      client.Query("SELECT * FROM Warnings WHERE week=3");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->table.data.num_rows(), 1u);

  // A week-1 row violates the (*,1,*,*) promise: the default policy
  // rejects the record and keeps the promise.
  ack = client.Ingest("Warnings",
                      {Tuple{Value("Sat"), Value(int64_t{1}), Value("twX"),
                             Value("late arrival")}});
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->rows_ingested, 0u);
  EXPECT_EQ(ack->rows_rejected, 1u);
  EXPECT_EQ(ack->violations, 1u);

  // Under the retract policy the same row lands and the violated
  // promise is withdrawn instead.
  ClientWriteOptions retract;
  retract.policy = IngestRequest::kPolicyRetractPatterns;
  ack = client.Ingest("Warnings",
                      {Tuple{Value("Sat"), Value(int64_t{1}), Value("twX"),
                             Value("late arrival")}},
                      retract);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->rows_ingested, 1u);
  EXPECT_EQ(ack->violations, 1u);
  EXPECT_GE(ack->patterns_retracted, 1u);
  EXPECT_GE(server_->metrics().CounterValue("ingest_rows_total"), 2u);
  EXPECT_GE(server_->metrics().CounterValue("patterns_retracted_total"), 1u);

  // A malformed write (unknown table) surfaces as a wire error and the
  // connection keeps serving.
  ack = client.Ingest("NoSuchTable", {Tuple{Value(int64_t{1})}});
  EXPECT_FALSE(ack.ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, SignatureKeyedInvalidationSparesIncomparableEntries) {
  StartServer();
  Client client = ConnectOrDie();

  ASSERT_TRUE(client.Query(kQhwSql).ok());  // warm the cache
  Result<ClientAnswer> warm = client.Query(kQhwSql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->done.cache_hit);

  // A punctuation constraining only `day` has signature {day}; Q_hw's
  // constant mask over Warnings is {week}. Incomparable: the cached
  // answer stays valid (the addition cannot change its rows and only
  // under-reports completeness) and must still hit.
  Result<IngestResult> ack =
      client.Punctuate("Warnings", {{"p9", "*", "*", "*"}});
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->punctuations, 1u);
  Result<ClientAnswer> after_day = client.Query(kQhwSql);
  ASSERT_TRUE(after_day.ok());
  EXPECT_TRUE(after_day->done.cache_hit);
  EXPECT_EQ(server_->cache().GetStats().sig_invalidations, 0u);

  // A punctuation constraining `week` is comparable with {week}: the
  // entry is invalidated, the re-evaluation sees the new promise, and
  // the answer's completeness annotation actually improves.
  ack = client.Punctuate("Warnings", {{"*", "2", "*", "*"}});
  ASSERT_TRUE(ack.ok());
  Result<ClientAnswer> after_week = client.Query(kQhwSql);
  ASSERT_TRUE(after_week.ok());
  EXPECT_FALSE(after_week->done.cache_hit);
  EXPECT_NE(after_week->canonical_bytes, warm->canonical_bytes);
  EXPECT_GE(server_->cache().GetStats().sig_invalidations, 1u);
}

TEST_F(ServerTest, ReadersKeepAnsweringWhileAWriterIsBusy) {
  ServerOptions options;
  options.eval_threads = 4;
  StartServer(options);
  Client reader = ConnectOrDie();
  ASSERT_TRUE(reader.Query(kQhwSql).ok());  // warm plan + cache

  // Make the writer job dwell on one op for a second. Readers evaluate
  // against the current snapshot and take db_mu_ only for the pointer
  // read, so they must not feel the writer at all.
  Failpoints::Global().Activate("server.ingest", FailpointSpec::Sleep(1000));
  std::atomic<bool> ingest_done{false};
  {
    ThreadPool pool(2);  // a 1-thread pool runs tasks inline on Submit
    pool.Submit([this, &ingest_done] {
      Client w = ConnectOrDie();
      Result<IngestResult> ack = w.Ingest(
          "Warnings", {Tuple{Value("Thu"), Value(int64_t{4}), Value("tw7"),
                             Value("slow write")}});
      EXPECT_TRUE(ack.ok()) << ack.status().ToString();
      ingest_done.store(true);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 5; ++i) {
      Result<ClientAnswer> answer = reader.Query(kQhwSql);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    }
    const double query_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    // All five round trips fit comfortably inside the writer's 1s
    // dwell; if readers serialized behind the writer this would take
    // seconds.
    EXPECT_LT(query_ms, 800.0);
    EXPECT_FALSE(ingest_done.load());
    pool.Wait();
  }
  EXPECT_TRUE(ingest_done.load());
  Failpoints::Global().Clear();
}

TEST_F(ServerTest, TenantQuotaShedsAFloodWithoutStarvingOthers) {
  ServerOptions options;
  options.eval_threads = 2;
  options.tenant_write_quota = 2;
  StartServer(options);

  // Keep the writer busy so pending writes actually pile up: the first
  // (quota-exempt "warm" tenant) op is popped into a batch and dwells
  // in apply while everything else arrives.
  Failpoints::Global().Activate("server.ingest", FailpointSpec::Sleep(400));

  Result<Socket> conn = TcpConnect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SetRecvTimeoutMillis(15000).ok());
  auto ingest_frame = [](uint64_t request_id, const std::string& tenant) {
    IngestRequest request;
    request.tenant = tenant;
    request.table = "Warnings";
    request.rows.push_back({Value("Thu"), Value(int64_t{5}),
                            Value("tw" + std::to_string(request_id)),
                            Value("flood")});
    std::string wire;
    AppendFrame(&wire, FrameType::kIngest, request_id,
                EncodeIngestPayload(request));
    return wire;
  };

  std::string first = ingest_frame(1, "warm");
  ASSERT_TRUE(conn->SendAll(first.data(), first.size()).ok());
  // Let the writer pop it and start dwelling.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Five more from "flood" (quota 2) and one from "calm": 2 flood ops
  // queue, 3 shed with kUnavailable, calm queues untouched.
  std::string burst;
  for (uint64_t id = 2; id <= 6; ++id) burst += ingest_frame(id, "flood");
  burst += ingest_frame(7, "calm");
  ASSERT_TRUE(conn->SendAll(burst.data(), burst.size()).ok());

  FrameReader reader;
  size_t acks = 0, sheds = 0;
  while (acks + sheds < 7) {
    Frame frame;
    Result<bool> complete = reader.Next(&frame);
    ASSERT_TRUE(complete.ok());
    if (!*complete) {
      char buf[4096];
      Result<IoResult> io = conn->Recv(buf, sizeof(buf));
      ASSERT_TRUE(io.ok()) << io.status().ToString();
      ASSERT_FALSE(io->eof);
      ASSERT_FALSE(io->would_block) << "timed out waiting for write acks";
      reader.Feed(buf, io->bytes);
      continue;
    }
    if (frame.type == FrameType::kIngestResult) {
      ++acks;
      continue;
    }
    ASSERT_EQ(frame.type, FrameType::kError);
    Status remote;
    ASSERT_TRUE(DecodeErrorPayload(frame.payload, &remote).ok());
    EXPECT_EQ(remote.code(), StatusCode::kUnavailable) << remote.ToString();
    EXPECT_NE(remote.ToString().find("quota"), std::string::npos)
        << remote.ToString();
    ++sheds;
  }
  EXPECT_EQ(acks, 4u);   // warm + 2 flood + calm
  EXPECT_EQ(sheds, 3u);  // flood beyond its quota
  EXPECT_EQ(server_->metrics().CounterValue("writes_shed_total"), 3u);

  // Shedding never starved queries: the read path still serves.
  Failpoints::Global().Clear();
  EXPECT_TRUE(ConnectOrDie().Query(kQhwSql).ok());
}

TEST_F(ServerTest, ReadQuotaShedsAFloodTenantWithoutStarvingOthers) {
  ServerOptions options;
  options.eval_threads = 1;
  options.tenant_read_quota = 2;
  // Per-tenant shed counters exist only for configured tenants; the
  // anonymous flood below lands in `queries_shed_total.other`.
  options.tenant_tiers["flood"] = 1;
  StartServer(options);

  // Park the single eval thread so admitted reads pile up: the first
  // flood query dwells in evaluation, the second sits queued, and
  // everything past the quota of 2 must shed on arrival.
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(300));

  Client flood = ConnectOrDie();
  ClientQueryOptions flood_options;
  flood_options.tenant = "flood";
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> id = flood.SendQuery(kQhwSql, flood_options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  size_t ok = 0, shed = 0;
  for (uint64_t id : ids) {
    Result<ClientAnswer> answer = flood.ReadAnswer(id);
    if (answer.ok()) {
      ++ok;
      continue;
    }
    EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable)
        << answer.status().ToString();
    EXPECT_NE(answer.status().message().find("read quota"),
              std::string::npos)
        << answer.status().ToString();
    ++shed;
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 3u);
  EXPECT_EQ(server_->metrics().CounterValue("queries_shed_total"), 3u);
  // The per-tenant breakdown names the offender (configured in
  // tenant_tiers, so it gets its own counter).
  EXPECT_EQ(server_->metrics().CounterValue("queries_shed_total.flood"), 3u);

  // A tenant the server was never configured with sheds into the shared
  // ".other" counter: counter names come off the wire, and a client
  // cycling random tenant strings must not grow the registry.
  Client anon = ConnectOrDie();
  ClientQueryOptions anon_options;
  anon_options.tenant = "anon-e7c1";
  ids.clear();
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> id = anon.SendQuery(kQhwSql, anon_options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  size_t anon_shed = 0;
  for (uint64_t id : ids) {
    if (!anon.ReadAnswer(id).ok()) ++anon_shed;
  }
  // Exact shed counts are timing-sensitive (a slow send lets a quota
  // unit free up); what matters here is the *naming*: every anonymous
  // shed lands in ".other" and the wire-supplied tenant string never
  // becomes a metric.
  EXPECT_GE(anon_shed, 1u);
  EXPECT_EQ(server_->metrics().CounterValue("queries_shed_total"),
            3u + anon_shed);
  EXPECT_EQ(server_->metrics().CounterValue("queries_shed_total.other"),
            anon_shed);
  EXPECT_EQ(server_->metrics().ToJson().find("anon-e7c1"),
            std::string::npos);

  // Quota units released on completion: the same tenant serves again,
  // and an unrelated tenant was never affected.
  Failpoints::Global().Clear();
  Client calm = ConnectOrDie();
  ClientQueryOptions calm_options;
  calm_options.tenant = "calm";
  EXPECT_TRUE(calm.Query(kQhwSql, calm_options).ok());
  EXPECT_TRUE(flood.Query(kQhwSql, flood_options).ok());
  EXPECT_EQ(server_->metrics().CounterValue("queries_shed_total"),
            3u + anon_shed);
}

TEST_F(ServerTest, ShardInfoReportsPlacementAndEpochs) {
  // A non-sharded server is shard 0 of 1 with no hashed tables; the
  // epochs are live (a write bumps its table's).
  StartServer();
  Client client = ConnectOrDie();
  Result<ShardInfo> info = client.GetShardInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->shard_id, 0u);
  EXPECT_EQ(info->num_shards, 1u);
  uint64_t warnings_epoch = 0;
  bool saw_warnings = false;
  for (const ShardTableInfo& table : info->tables) {
    EXPECT_FALSE(table.hashed) << table.table;
    if (table.table == "Warnings") {
      saw_warnings = true;
      warnings_epoch = table.epoch;
    }
  }
  EXPECT_TRUE(saw_warnings);
  ASSERT_TRUE(client
                  .Ingest("Warnings",
                          {Tuple{Value("Fri"), Value(int64_t{30}),
                                 Value("tw90"), Value("epoch bump")}})
                  .ok());
  info = client.GetShardInfo();
  ASSERT_TRUE(info.ok());
  for (const ShardTableInfo& table : info->tables) {
    if (table.table == "Warnings") {
      EXPECT_GT(table.epoch, warnings_epoch);
    }
  }
}

TEST_F(ServerTest, ShardModeAppliesOnlyOwnedRowsAndPatterns) {
  // A shard receiving the coordinator's write broadcast applies only
  // what it owns: rows by hash, statements by constant signature.
  ServerOptions options;
  options.shard_id = 0;
  options.num_shards = 3;
  options.hashed_tables = {"Warnings"};
  StartServer(options);
  Client client = ConnectOrDie();

  std::vector<Tuple> rows;
  size_t owned_rows = 0;
  for (int i = 0; i < 12; ++i) {
    Tuple row{Value("d" + std::to_string(i)), Value(int64_t{50 + i}),
              Value("sid" + std::to_string(i)), Value("filter probe")};
    if (ShardForRow(row, 3) == 0) ++owned_rows;
    rows.push_back(std::move(row));
  }
  ASSERT_GT(owned_rows, 0u);
  ASSERT_LT(owned_rows, 12u);
  Result<IngestResult> ack = client.Ingest("Warnings", rows);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->rows_ingested, owned_rows);

  // Patterns: parse against the live schema to predict ownership.
  AnnotatedDatabase reference = MakeMaintenanceDatabase();
  Result<const Table*> warnings =
      reference.database().GetTable("Warnings");
  ASSERT_TRUE(warnings.ok());
  // Statements partition by constant-POSITION signature, so spread the
  // masks (which columns are constant), not just the constants.
  const std::vector<std::vector<std::string>> masks = {
      {"*", "50", "*", "*"},      {"d1", "*", "*", "*"},
      {"d2", "51", "*", "*"},     {"*", "*", "sid3", "*"},
      {"*", "*", "*", "m4"},      {"d5", "*", "sid5", "*"},
      {"*", "52", "sid6", "*"},   {"d7", "53", "sid7", "m7"},
  };
  std::vector<std::vector<std::string>> statements;
  size_t owned_patterns = 0;
  for (std::vector<std::string> fields : masks) {
    Result<Pattern> p = Pattern::Parse(fields, (*warnings)->schema());
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    if (ShardForPattern(*p, 3) == 0) ++owned_patterns;
    statements.push_back(std::move(fields));
  }
  ASSERT_GT(owned_patterns, 0u);
  ASSERT_LT(owned_patterns, masks.size());
  Result<IngestResult> punct = client.Punctuate("Warnings", statements);
  ASSERT_TRUE(punct.ok()) << punct.status().ToString();
  EXPECT_EQ(punct->punctuations, owned_patterns);
}

TEST_F(ServerTest, StopCancelsInFlightQueries) {
  StartServer();
  Client client = ConnectOrDie();
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(100));
  ASSERT_TRUE(client.SendQuery(kQhwSql).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Stop must not hang on the sleeping evaluation: the loop cancels its
  // token and the governed evaluator returns at the next checkpoint.
  server_->Stop();
  SUCCEED();
}

}  // namespace
}  // namespace pcdb
