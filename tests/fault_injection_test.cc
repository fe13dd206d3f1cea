#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "pattern/annotated_eval.h"
#include "pattern/minimize.h"
#include "relational/csv.h"
#include "relational/evaluator.h"
#include "server/client.h"
#include "server/net_socket.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads/maintenance_example.h"

namespace pcdb {
namespace {

/// Every test starts and ends with a clean registry: failpoints are
/// process-global, so leaking an armed one would poison later tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Global().Clear(); }
  void TearDown() override { Failpoints::Global().Clear(); }
};

// ---------------------------------------------------------------------------
// Covering workloads: one governed entry point per group of sites. Each
// returns the final Status so the matrix below can check the code an
// injected fault surfaces with.

Status RunCsvLoad() {
  Schema schema(
      {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  std::string text = "id,name\n";
  for (int i = 0; i < 40; ++i) text += std::to_string(i) + ",row\n";
  return ReadCsvString(text, schema, /*has_header=*/true, ExecContext())
      .status();
}

Status RunEvaluate() {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExprPtr plan = Expr::Join(Expr::Scan("Warnings"),
                            Expr::Scan("Maintenance"), "ID", "ID");
  return Evaluate(*plan, adb.database(), ExecContext()).status();
}

Status RunAnnotated() {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  return EvaluateAnnotated(*MakeHardwareWarningsQuery(), adb, {},
                           ExecContext())
      .status();
}

PatternSet BigRandomSet(uint64_t seed) {
  Rng rng(seed);
  PatternSet out;
  for (size_t i = 0; i < 500; ++i) {
    std::vector<Pattern::Cell> cells;
    for (size_t a = 0; a < 5; ++a) {
      Pattern::Cell cell;
      if (!rng.Bernoulli(0.5)) {
        cell.emplace("v" + std::to_string(rng.UniformInt(0, 3)));
      }
      cells.push_back(std::move(cell));
    }
    out.Add(Pattern(std::move(cells)));
  }
  return out;
}

Status RunMinimize() {
  return Minimize(BigRandomSet(11), MinimizeApproach::kAllAtOnce,
                  PatternIndexKind::kDiscriminationTree, ExecContext())
      .status();
}

/// Covering workload for pool.dispatch: one round of tasks on a
/// 2-worker pool, whose captured failure is the round's Status.
Status RunPoolRound() {
  ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) pool.Submit([] {});
  pool.Wait();
  return pool.ConsumeStatus();
}

/// Covering workload for the socket/framing sites: a loopback
/// listen/connect/send/recv/decode round trip over the real network
/// primitives. Unlike the library workloads above, throw-action faults
/// here are not absorbed by an entry-point guard inside src/server (the
/// serving loop guards per *connection*, which this primitive-level
/// round trip bypasses), so the workload supplies the guard itself —
/// mirroring what the loop does.
Status NetRoundTripImpl() {
  PCDB_ASSIGN_OR_RETURN(Listener listener,
                        Listener::BindAndListen("127.0.0.1", 0));
  PCDB_ASSIGN_OR_RETURN(Socket client, TcpConnect("127.0.0.1", listener.port()));
  PCDB_RETURN_NOT_OK(client.SetRecvTimeoutMillis(5000));

  // The listener is non-blocking; a freshly connected peer may need a
  // beat to become acceptable.
  Socket server;
  for (int i = 0; i < 500 && !server.valid(); ++i) {
    PCDB_ASSIGN_OR_RETURN(Listener::AcceptResult accepted, listener.Accept());
    if (!accepted.would_block) {
      server = std::move(accepted.socket);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!server.valid()) return Status::Internal("accept never completed");
  PCDB_RETURN_NOT_OK(server.SetRecvTimeoutMillis(5000));

  auto pump = [](Socket* sock, FrameReader* reader, Frame* out) -> Status {
    for (;;) {
      PCDB_ASSIGN_OR_RETURN(bool complete, reader->Next(out));
      if (complete) return Status::OK();
      char buf[256];
      PCDB_ASSIGN_OR_RETURN(IoResult io, sock->Recv(buf, sizeof(buf)));
      if (io.eof) return Status::Unavailable("peer closed mid-frame");
      if (io.would_block) return Status::Timeout("read timed out");
      reader->Feed(buf, io.bytes);
    }
  };

  // Client -> server: one frame, decoded (possibly from 1-byte reads
  // under server.read.short).
  std::string wire;
  AppendFrame(&wire, FrameType::kPing, 7, "round trip payload");
  PCDB_RETURN_NOT_OK(client.SendAll(wire.data(), wire.size()));
  FrameReader server_reader;
  Frame request;
  PCDB_RETURN_NOT_OK(pump(&server, &server_reader, &request));
  if (request.request_id != 7 || request.payload != "round trip payload") {
    return Status::Internal("frame corrupted in transit");
  }

  // Server -> client echo.
  std::string reply;
  AppendFrame(&reply, FrameType::kPong, request.request_id, request.payload);
  PCDB_RETURN_NOT_OK(server.SendAll(reply.data(), reply.size()));
  FrameReader client_reader;
  Frame response;
  PCDB_RETURN_NOT_OK(pump(&client, &client_reader, &response));
  if (response.type != FrameType::kPong ||
      response.payload != request.payload) {
    return Status::Internal("echo corrupted in transit");
  }
  return Status::OK();
}

/// Covering workload for server.ingest: a real Server + Client INGEST
/// round trip. The failpoint fires inside the writer job (ApplyWriteOp);
/// error actions come back on the INGEST's ERROR frame with the injected
/// code, throw actions are caught by the per-op guard and surface as
/// kInternal — either way the server stays up.
Status IngestRoundTripImpl() {
  ServerOptions options;
  options.eval_threads = 2;
  Server server(MakeMaintenanceDatabase(), options);
  PCDB_RETURN_NOT_OK(server.Start());
  PCDB_ASSIGN_OR_RETURN(Client client,
                        Client::Connect("127.0.0.1", server.port()));
  // Week 3 is not covered by any Warnings pattern, so the row violates
  // no promise and the happy path ingests it cleanly.
  PCDB_ASSIGN_OR_RETURN(
      IngestResult ack,
      client.Ingest("Warnings",
                    {Tuple{Value("Thu"), Value(int64_t{3}), Value("tw99"),
                           Value("scheduled check")}}));
  if (ack.rows_ingested != 1) {
    return Status::Internal("ingest ack reported " +
                            std::to_string(ack.rows_ingested) + " rows");
  }
  return Status::OK();
}

Status RunIngestRoundTrip() {
  try {
    return IngestRoundTripImpl();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("ingest round trip threw: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("ingest round trip threw");
  }
}

/// Covering workload for the durability sites: one pass over the whole
/// durable write path in a throwaway directory — open a WAL, group-
/// commit one record, checkpoint, load the checkpoint back, replay the
/// log. Hits wal.open, wal.append, wal.append.short, wal.corrupt,
/// wal.fsync, checkpoint.write, checkpoint.rename, and recovery.record.
/// The silent-corruption sites (wal.corrupt, wal.append.short) leave the
/// workload OK under Sleep(0): replay stops cleanly at the mangled tail,
/// exactly the contract recovery relies on.
Status DurabilityRoundTripImpl() {
  char tmpl[] = "/tmp/pcdb_faults_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    return Status::Internal("mkdtemp failed");
  }
  const std::string dir = tmpl;
  auto cleanup = [&dir] {
    Result<std::vector<std::string>> segments = ListWalSegments(dir);
    if (segments.ok()) {
      for (const std::string& path : *segments) unlink(path.c_str());
    }
    unlink((dir + "/CHECKPOINT").c_str());
    unlink((dir + "/CHECKPOINT.tmp").c_str());
    rmdir(dir.c_str());
  };
  Status status = [&dir]() -> Status {
    PCDB_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> writer,
                          WalWriter::Open(dir));
    WalRecord record;
    record.tenant = "t";
    record.writer_id = 1;
    record.seq = 1;
    record.payload = "payload";
    std::vector<WalRecord> batch = {record};
    PCDB_RETURN_NOT_OK(writer->AppendBatch(&batch));
    const AnnotatedDatabase adb = MakeMaintenanceDatabase();
    PCDB_RETURN_NOT_OK(
        SaveCheckpoint(dir + "/CHECKPOINT", adb, /*last_lsn=*/0, {}));
    PCDB_RETURN_NOT_OK(LoadCheckpoint(dir + "/CHECKPOINT").status());
    PCDB_RETURN_NOT_OK(
        ReplayWal(dir, 0, [](const WalRecord&) { return Status::OK(); })
            .status());
    return Status::OK();
  }();
  cleanup();
  return status;
}

Status RunDurabilityRoundTrip() {
  try {
    return DurabilityRoundTripImpl();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("durability round trip threw: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("durability round trip threw");
  }
}

Status RunNetRoundTrip() {
  try {
    return NetRoundTripImpl();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("net round trip threw: ") + e.what());
  } catch (...) {
    return Status::Internal("net round trip threw");
  }
}

struct SiteWorkload {
  const char* site;
  Status (*run)();
};

const std::vector<SiteWorkload>& CoveringWorkloads() {
  static const std::vector<SiteWorkload>* workloads =
      new std::vector<SiteWorkload>{
          {"csv.read", RunCsvLoad},
          {"csv.record", RunCsvLoad},
          {"eval.operator", RunEvaluate},
          {"eval.join.probe", RunEvaluate},
          {"annotated.operator", RunAnnotated},
          {"minimize.pattern", RunMinimize},
          {"pool.dispatch", RunPoolRound},
          {"server.accept", RunNetRoundTrip},
          {"server.read", RunNetRoundTrip},
          {"server.read.short", RunNetRoundTrip},
          {"server.decode", RunNetRoundTrip},
          {"server.write", RunNetRoundTrip},
          {"server.ingest", RunIngestRoundTrip},
          {"wal.open", RunDurabilityRoundTrip},
          {"wal.append", RunDurabilityRoundTrip},
          {"wal.append.short", RunDurabilityRoundTrip},
          {"wal.corrupt", RunDurabilityRoundTrip},
          {"wal.fsync", RunDurabilityRoundTrip},
          {"checkpoint.write", RunDurabilityRoundTrip},
          {"checkpoint.rename", RunDurabilityRoundTrip},
          {"recovery.record", RunDurabilityRoundTrip},
      };
  return *workloads;
}

// ---------------------------------------------------------------------------
// The matrix: every compiled-in site x {error, throw}. Nothing may
// terminate the process, and every site surfaces the injected code.

TEST_F(FaultInjectionTest, CoveringWorkloadsMatchAllSites) {
  // The workload table above and AllSites() must stay in sync, or the
  // matrix silently loses coverage when a new site is instrumented.
  std::vector<std::string> covered;
  for (const SiteWorkload& w : CoveringWorkloads()) covered.push_back(w.site);
  std::sort(covered.begin(), covered.end());
  std::vector<std::string> sites = Failpoints::AllSites();
  std::sort(sites.begin(), sites.end());
  EXPECT_EQ(covered, sites);
}

TEST_F(FaultInjectionTest, EverySiteFiresOnItsCoveringWorkload) {
  // Sleep(0) is an observable no-op: the workload result is unchanged
  // but FireCount proves the site was actually reached.
  for (const SiteWorkload& w : CoveringWorkloads()) {
    Failpoints::Global().Activate(w.site, FailpointSpec::Sleep(0));
  }
  for (const SiteWorkload& w : CoveringWorkloads()) {
    EXPECT_TRUE(w.run().ok()) << w.site;
  }
  for (const SiteWorkload& w : CoveringWorkloads()) {
    EXPECT_GT(Failpoints::Global().FireCount(w.site), 0u) << w.site;
  }
}

TEST_F(FaultInjectionTest, ErrorActionSurfacesTheInjectedCode) {
  for (const SiteWorkload& w : CoveringWorkloads()) {
    Failpoints::Global().Activate(
        w.site, FailpointSpec::Error(StatusCode::kOutOfRange));
    Status status = w.run();
    Failpoints::Global().Clear();
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << w.site << ": "
                                                      << status;
  }
}

TEST_F(FaultInjectionTest, ThrowActionBecomesInternalStatusEverywhere) {
  // A throw-action failpoint exercises the exception guards: pool tasks
  // capture it in the worker, library paths in the entry-point guard —
  // both must surface kInternal, never terminate.
  for (const SiteWorkload& w : CoveringWorkloads()) {
    Failpoints::Global().Activate(w.site, FailpointSpec::Throw());
    Status status = w.run();
    Failpoints::Global().Clear();
    EXPECT_EQ(status.code(), StatusCode::kInternal) << w.site << ": "
                                                    << status;
  }
}

// ---------------------------------------------------------------------------
// Triggers are deterministic.

TEST_F(FaultInjectionTest, OnceFiresOnTheFirstHitOnly) {
  // FireCount is a process-lifetime ledger (it survives Clear() by
  // design), so all counting assertions compare against a baseline.
  const uint64_t base = Failpoints::Global().FireCount("test.site");
  Failpoints::Global().Activate("test.site", FailpointSpec::Error().Once());
  EXPECT_FALSE(Failpoints::Global().Hit("test.site").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Failpoints::Global().Hit("test.site").ok());
  }
  EXPECT_EQ(Failpoints::Global().FireCount("test.site") - base, 1u);
}

TEST_F(FaultInjectionTest, EveryNthFiresOnMultiplesOfN) {
  Failpoints::Global().Activate("test.site",
                                FailpointSpec::Error().EveryNth(3));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(!Failpoints::Global().Hit("test.site").ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
}

TEST_F(FaultInjectionTest, ProbabilityTriggerIsSeedDeterministic) {
  auto draw_sequence = [](uint64_t seed) {
    Failpoints::Global().Activate(
        "test.site", FailpointSpec::Error().WithProbability(0.5, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 100; ++i) {
      fired.push_back(!Failpoints::Global().Hit("test.site").ok());
    }
    Failpoints::Global().Deactivate("test.site");
    return fired;
  };
  std::vector<bool> first = draw_sequence(42);
  std::vector<bool> second = draw_sequence(42);
  EXPECT_EQ(first, second);
  // Some fire, some don't: p=0.5 over 100 hits.
  EXPECT_NE(first, std::vector<bool>(100, false));
  EXPECT_NE(first, std::vector<bool>(100, true));
  // A different seed draws a different sequence.
  EXPECT_NE(draw_sequence(43), first);
}

TEST_F(FaultInjectionTest, FireCountSurvivesDeactivateAndClear) {
  const uint64_t base = Failpoints::Global().FireCount("test.site");
  Failpoints::Global().Activate("test.site", FailpointSpec::Error());
  (void)Failpoints::Global().Hit("test.site");
  (void)Failpoints::Global().Hit("test.site");
  Failpoints::Global().Deactivate("test.site");
  EXPECT_EQ(Failpoints::Global().FireCount("test.site") - base, 2u);
  EXPECT_FALSE(Failpoints::Global().IsActive("test.site"));
  Failpoints::Global().Activate("test.site", FailpointSpec::Error());
  (void)Failpoints::Global().Hit("test.site");
  EXPECT_EQ(Failpoints::Global().FireCount("test.site") - base, 3u);
  Failpoints::Global().Clear();
  EXPECT_EQ(Failpoints::Global().FireCount("test.site") - base, 3u);
}

// ---------------------------------------------------------------------------
// The PCDB_FAILPOINTS grammar.

TEST_F(FaultInjectionTest, ParsesFullSpecStrings) {
  ASSERT_TRUE(Failpoints::Global()
                  .ActivateFromString(
                      "minimize.pattern=error;pool.dispatch=sleep(2);"
                      "csv.record=once:throw;"
                      "eval.operator=every(3):error(timeout);"
                      "wal.fsync=prob(0.25,42):error(resource_exhausted)")
                  .ok());
  for (const char* name :
       {"minimize.pattern", "pool.dispatch", "csv.record", "eval.operator",
        "wal.fsync"}) {
    EXPECT_TRUE(Failpoints::Global().IsActive(name)) << name;
  }
  // every(3):error(timeout) behaves as parsed.
  EXPECT_TRUE(Failpoints::Global().Hit("eval.operator").ok());
  EXPECT_TRUE(Failpoints::Global().Hit("eval.operator").ok());
  Status third = Failpoints::Global().Hit("eval.operator");
  EXPECT_EQ(third.code(), StatusCode::kTimeout);
}

TEST_F(FaultInjectionTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"noequals", "=error", "x=bogus", "x=once:error(wat)",
        "x=every(0):error", "x=prob(0.5):error", "x=every(two):error",
        "x=once:sleep(fast)", "x=unknowntrigger(1):error"}) {
    Status status = Failpoints::Global().ActivateFromSpec(bad);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << bad;
    EXPECT_FALSE(Failpoints::Global().IsActive("x")) << bad;
  }
}

TEST_F(FaultInjectionTest, EntriesBeforeAMalformedOneStayArmed) {
  Status status =
      Failpoints::Global().ActivateFromString("test.site=error;oops");
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_TRUE(Failpoints::Global().IsActive("test.site"));
}

// ---------------------------------------------------------------------------
// ThreadPool: the wait group, and the failure semantics the matrix relies
// on.

TEST(ThreadPoolTest, InlineModeRunsTasksImmediately) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int x = 0;
  pool.Submit([&x] { x = 42; });
  EXPECT_EQ(x, 42);  // ran inline, no Wait needed
  pool.Wait();
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitGroupIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST_F(FaultInjectionTest, PoolCapturesTaskExceptionsAsInternal) {
  ThreadPool pool(4);
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Wait();
  Status status = pool.ConsumeStatus();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // ConsumeStatus re-arms the pool: the next round is clean.
  EXPECT_TRUE(pool.ConsumeStatus().ok());
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_TRUE(pool.ConsumeStatus().ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(FaultInjectionTest, FirstErrorCancelsQueuedTasksDeterministically) {
  // Inline pool: submissions run in order, so everything after the
  // failure must be skipped — observable without racing a real queue.
  ThreadPool pool(1);
  int ran = 0;
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Submit([&ran] { ++ran; });
  pool.Submit([&ran] { ++ran; });
  pool.Wait();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(pool.ConsumeStatus().code(), StatusCode::kInternal);
  pool.Submit([&ran] { ++ran; });  // re-armed
  EXPECT_EQ(ran, 1);
}

TEST_F(FaultInjectionTest, SleepActionDelaysButDoesNotFail) {
  const uint64_t base = Failpoints::Global().FireCount("pool.dispatch");
  Failpoints::Global().Activate("pool.dispatch", FailpointSpec::Sleep(1));
  Failpoints::Global().Activate("minimize.pattern",
                                FailpointSpec::Sleep(0.1).EveryNth(100));
  EXPECT_TRUE(RunPoolRound().ok());
  EXPECT_TRUE(RunMinimize().ok());
  EXPECT_GT(Failpoints::Global().FireCount("pool.dispatch"), base);
}

}  // namespace
}  // namespace pcdb
