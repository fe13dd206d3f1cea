#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "obs/trace.h"
#include "pattern/annotated_eval.h"
#include "pattern/shard_route.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/planner.h"
#include "workloads/maintenance_example.h"

/// \file
/// Distributed-mode tests: partition-map codec and routing units, then
/// end-to-end differentials running a real Coordinator over real shard
/// Servers on loopback. The load-bearing property is the acceptance
/// criterion from docs/DISTRIBUTED.md: for N in {1,2,3} shards, the
/// distributed answer — rows AND minimized patterns, order-normalized —
/// is byte-identical to the single-process evaluation, and a lost shard
/// degrades to kUnavailable instead of a silently wrong completeness
/// verdict.

namespace pcdb {
namespace {

/// Disarms every failpoint a test armed, then re-arms the process's
/// PCDB_FAILPOINTS spec, so an injection sweep over this binary
/// (tools/ci.sh faults) reaches every test rather than only the first.
void ResetFailpointsToEnvironment() {
  Failpoints::Global().Clear();
  const char* env = std::getenv("PCDB_FAILPOINTS");
  if (env != nullptr) {
    EXPECT_TRUE(Failpoints::Global().ActivateFromString(env).ok()) << env;
  }
}

constexpr const char* kQhwSql =
    "SELECT * FROM Warnings W JOIN Maintenance M ON W.ID=M.ID "
    "JOIN Teams T ON M.responsible=T.name "
    "WHERE W.week=2 AND T.specialization='hardware'";

// ---------------------------------------------------------------------------
// Partition-map codec

TEST(PartitionMapCodec, RoundTripsCanonically) {
  PartitionMap map;
  map.num_shards = 3;
  map.hashed = {"Warnings", "Alerts"};
  const std::string bytes = EncodePartitionMap(map);
  Result<PartitionMap> decoded = DecodePartitionMap(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_shards, 3u);
  EXPECT_EQ(decoded->hashed, map.hashed);
  // Canonical: accepted payloads re-encode to the identical bytes (the
  // fuzzer asserts the same).
  EXPECT_EQ(EncodePartitionMap(*decoded), bytes);
}

TEST(PartitionMapCodec, RejectsMalformedPayloads) {
  // Zero shards.
  PartitionMap zero;
  zero.num_shards = 0;
  EXPECT_EQ(DecodePartitionMap(EncodePartitionMap(zero)).status().code(),
            StatusCode::kParseError);
  // Truncation: every proper prefix of a valid payload must be rejected
  // (never crash, never accept).
  PartitionMap map;
  map.num_shards = 2;
  map.hashed = {"T"};
  const std::string bytes = EncodePartitionMap(map);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodePartitionMap(bytes.substr(0, len)).ok()) << len;
  }
  // Trailing garbage.
  EXPECT_EQ(DecodePartitionMap(bytes + "x").status().code(),
            StatusCode::kParseError);
  // Non-canonical order (B after C) and duplicates are both "<= prev".
  std::string out;
  auto append_u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  append_u32(2);  // num_shards
  append_u32(2);  // table count
  append_u32(1);
  out += "C";
  append_u32(1);
  out += "B";
  EXPECT_EQ(DecodePartitionMap(out).status().code(),
            StatusCode::kParseError);
}

TEST(PartitionMapCodec, ParsesHashedSpecs) {
  Result<std::set<std::string>> ok = ParseHashedSpec("Warnings,Alerts");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (std::set<std::string>{"Alerts", "Warnings"}));
  ASSERT_TRUE(ParseHashedSpec("").ok());
  EXPECT_TRUE(ParseHashedSpec("")->empty());
  EXPECT_FALSE(ParseHashedSpec("A,,B").ok());
  EXPECT_FALSE(ParseHashedSpec("A,A").ok());
  EXPECT_FALSE(ParseHashedSpec(",").ok());
}

TEST(ParseEndpointsTest, ParsesAndRejects) {
  Result<std::vector<ShardEndpoint>> ok =
      ParseEndpoints("127.0.0.1:7001,localhost:7002");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->size(), 2u);
  EXPECT_EQ((*ok)[0].host, "127.0.0.1");
  EXPECT_EQ((*ok)[0].port, 7001);
  EXPECT_EQ((*ok)[1].host, "localhost");
  EXPECT_EQ((*ok)[1].port, 7002);
  EXPECT_FALSE(ParseEndpoints("").ok());
  EXPECT_FALSE(ParseEndpoints("noport").ok());
  EXPECT_FALSE(ParseEndpoints("h:0").ok());
  EXPECT_FALSE(ParseEndpoints("h:99999").ok());
  EXPECT_FALSE(ParseEndpoints("h:12x").ok());
  EXPECT_FALSE(ParseEndpoints(":7001").ok());
}

// ---------------------------------------------------------------------------
// Row / pattern routing

TEST(ShardRouting, EveryRowRoutesToExactlyOneShard) {
  AnnotatedDatabase full = MakeMaintenanceDatabase();
  PartitionMap map;
  map.num_shards = 3;
  map.hashed = {"Warnings"};
  Result<const Table*> warnings = full.database().GetTable("Warnings");
  ASSERT_TRUE(warnings.ok());
  // The per-shard slices partition the full table: every row lands on
  // exactly one shard (RouteRow is a function), and the union of the
  // slices is the full table (bag semantics).
  std::vector<AnnotatedDatabase> shards;
  for (uint32_t s = 0; s < 3; ++s) {
    shards.push_back(MakeMaintenanceDatabase());
    ASSERT_TRUE(PartitionDatabase(&shards.back(), map, s).ok());
  }
  Table merged((*warnings)->schema());
  size_t total = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    Result<const Table*> slice = shards[s].database().GetTable("Warnings");
    ASSERT_TRUE(slice.ok());
    for (const Tuple& row : (*slice)->rows()) {
      EXPECT_EQ(RouteRow(map, row), s);
      merged.AppendUnchecked(row);
      ++total;
    }
  }
  EXPECT_EQ(total, (*warnings)->num_rows());
  EXPECT_TRUE(merged.BagEquals(**warnings));
}

TEST(ShardRouting, PatternStatementsPartitionBySignature) {
  AnnotatedDatabase full = MakeMaintenanceDatabase();
  PartitionMap map;
  map.num_shards = 3;
  map.hashed = {"Warnings"};
  size_t total = 0;
  std::vector<AnnotatedDatabase> shards;
  for (uint32_t s = 0; s < 3; ++s) {
    shards.push_back(MakeMaintenanceDatabase());
    ASSERT_TRUE(PartitionDatabase(&shards.back(), map, s).ok());
    for (const Pattern& p : shards[s].patterns("Warnings")) {
      EXPECT_EQ(RoutePattern(map, p), s);
      ++total;
    }
  }
  EXPECT_EQ(total, full.patterns("Warnings").size());
}

TEST(ShardRouting, PartitionDatabaseRejectsBadArguments) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  PartitionMap map;
  map.num_shards = 2;
  map.hashed = {"NoSuchTable"};
  EXPECT_EQ(PartitionDatabase(&adb, map, 0).code(),
            StatusCode::kInvalidArgument);
  map.hashed = {"Warnings"};
  EXPECT_EQ(PartitionDatabase(&adb, map, 2).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Query routing analysis

TEST(AnalyzeQueryTest, RoutesByHashedOccurrences) {
  PartitionMap map;
  map.num_shards = 3;
  map.hashed = {"Warnings"};

  // Replicated-only: a single shard answers exactly.
  QueryRouting r = AnalyzeQuery(map, "SELECT * FROM Teams", false, false);
  EXPECT_EQ(r.route, QueryRoute::kSingleShard);
  EXPECT_LT(r.shard, 3u);

  // One hashed occurrence: scatter-gather.
  r = AnalyzeQuery(map, kQhwSql, false, false);
  EXPECT_EQ(r.route, QueryRoute::kBroadcast);

  // Self-join of a hashed table: result rows may pair tuples on
  // different shards — refused, not silently wrong.
  r = AnalyzeQuery(map,
                   "SELECT * FROM Warnings A JOIN Warnings B ON A.ID=B.ID",
                   false, false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);

  // Instance-aware / zombie evaluation consults data tuples.
  r = AnalyzeQuery(map, "SELECT * FROM Warnings", true, false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);
  r = AnalyzeQuery(map, "SELECT * FROM Warnings", false, true);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);

  // Parse errors forward to one shard for the identical error message.
  r = AnalyzeQuery(map, "garbage", false, false);
  EXPECT_EQ(r.route, QueryRoute::kSingleShard);

  // Everything replicated: always single-shard.
  PartitionMap replicated;
  replicated.num_shards = 3;
  r = AnalyzeQuery(replicated, kQhwSql, true, true);
  EXPECT_EQ(r.route, QueryRoute::kSingleShard);

  // Affinity is deterministic per SQL text.
  EXPECT_EQ(AnalyzeQuery(map, "SELECT * FROM Teams", false, false).shard,
            AnalyzeQuery(map, "SELECT * FROM Teams", false, false).shard);
}

TEST(AnalyzeQueryTest, RefusesShapesThatDoNotDistributeOverTheUnion) {
  PartitionMap map;
  map.num_shards = 3;
  map.hashed = {"Warnings"};

  // Aggregates over a hashed table: the coordinator's merge would
  // serve N partial results as final (COUNT(*) -> 3 partial counts).
  QueryRouting r =
      AnalyzeQuery(map, "SELECT COUNT(*) FROM Warnings", false, false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);
  r = AnalyzeQuery(map,
                   "SELECT day, COUNT(*) AS n FROM Warnings GROUP BY day",
                   false, false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);

  // LIMIT k would return up to N*k rows; ORDER BY is destroyed by the
  // canonical merge sort.
  r = AnalyzeQuery(map, "SELECT * FROM Warnings LIMIT 2", false, false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);
  r = AnalyzeQuery(map, "SELECT * FROM Warnings ORDER BY week", false,
                   false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);

  // The same shapes over replicated tables stay single-shard: one shard
  // holds those tables whole and answers exactly.
  r = AnalyzeQuery(map, "SELECT COUNT(*) FROM Teams", false, false);
  EXPECT_EQ(r.route, QueryRoute::kSingleShard);
  r = AnalyzeQuery(map,
                   "SELECT specialization, COUNT(*) AS n FROM Teams "
                   "GROUP BY specialization",
                   false, false);
  EXPECT_EQ(r.route, QueryRoute::kSingleShard);
  r = AnalyzeQuery(map, "SELECT * FROM Teams ORDER BY name LIMIT 2", false,
                   false);
  EXPECT_EQ(r.route, QueryRoute::kSingleShard);

  // A UNION mixing a hashed block with a replicated-only block would
  // duplicate the replicated block once per shard.
  r = AnalyzeQuery(map,
                   "SELECT day FROM Warnings UNION ALL SELECT name FROM Teams",
                   false, false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);

  // Even with every block hashed exactly once the row slices stay
  // disjoint, but the union's completeness annotation is the pairwise
  // meet of the two blocks' statement sets — and with statements
  // partitioned by signature no shard holds both sides, so the merge
  // would silently drop annotations the single process derives.
  r = AnalyzeQuery(map,
                   "SELECT day FROM Warnings WHERE week=1 UNION ALL "
                   "SELECT day FROM Warnings WHERE week=2",
                   false, false);
  EXPECT_EQ(r.route, QueryRoute::kUnsupported);
}

// ---------------------------------------------------------------------------
// End-to-end: Coordinator over real shard Servers

/// Starts N shard Servers (each holding its PartitionDatabase slice of
/// the maintenance example) plus a Coordinator fronting them.
class DistTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Belt and braces: a test that throws mid-iteration (the fault
    // matrix) must not leak an armed failpoint into the next test.
    ResetFailpointsToEnvironment();
    if (coordinator_ != nullptr) coordinator_->Stop();
    for (auto& shard : shards_) shard->Stop();
  }

  void StartFleet(uint32_t num_shards,
                  std::set<std::string> hashed = {"Warnings"}) {
    CoordinatorOptions coptions;
    coptions.hashed_tables = hashed;
    // Loopback shards answer in milliseconds; a short RPC timeout keeps
    // the fault-matrix iterations (where an armed failpoint can wedge a
    // shard connection) from serializing 30-second hangs.
    coptions.shard_recv_timeout_millis = 2000;
    for (uint32_t s = 0; s < num_shards; ++s) {
      AnnotatedDatabase adb = MakeMaintenanceDatabase();
      if (num_shards > 1) {
        PartitionMap map;
        map.num_shards = num_shards;
        map.hashed = hashed;
        ASSERT_TRUE(PartitionDatabase(&adb, map, s).ok());
      }
      ServerOptions soptions;
      soptions.shard_id = s;
      soptions.num_shards = num_shards;
      soptions.hashed_tables = num_shards > 1 ? hashed : decltype(hashed){};
      shards_.push_back(
          std::make_unique<Server>(std::move(adb), soptions));
      ASSERT_TRUE(shards_.back()->Start().ok());
      coptions.shards.push_back({"127.0.0.1", shards_.back()->port()});
    }
    if (num_shards <= 1) coptions.hashed_tables.clear();
    coordinator_ = std::make_unique<Coordinator>(std::move(coptions));
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  Client ConnectOrDie() {
    Result<Client> client =
        Client::Connect("127.0.0.1", coordinator_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// The single-process reference, order-normalized: evaluate against
  /// the full database, sort rows and patterns, serialize canonically.
  static std::string ReferenceBytes(const std::string& sql) {
    AnnotatedDatabase adb = MakeMaintenanceDatabase();
    Result<ExprPtr> plan = PlanSql(sql, adb.database());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return "";
    ExecContext ctx;
    Result<AnnotatedTable> answer =
        EvaluateAnnotated(**plan, adb, AnnotatedEvalOptions{}, ctx);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    if (!answer.ok()) return "";
    answer->data.Sort();
    answer->patterns.Sort();
    return EncodeAnswer(*answer, 256).CanonicalBytes();
  }

  /// The distributed answer, order-normalized the same way.
  static std::string NormalizedBytes(ClientAnswer answer) {
    answer.table.data.Sort();
    answer.table.patterns.Sort();
    return EncodeAnswer(answer.table, 256).CanonicalBytes();
  }

  /// Hashed-table ingests must use the retract policy in distributed
  /// mode (the coordinator refuses reject-policy ones, §5).
  static ClientWriteOptions RetractPolicy() {
    ClientWriteOptions wopts;
    wopts.policy = IngestRequest::kPolicyRetractPatterns;
    return wopts;
  }

  std::vector<std::unique_ptr<Server>> shards_;
  std::unique_ptr<Coordinator> coordinator_;
};

/// The tentpole differential: distributed answers for N in {1, 2, 3}
/// shards are byte-identical (order-normalized) to the single-process
/// evaluation — rows and minimized pattern statements both.
TEST_F(DistTest, DifferentialAgainstSingleProcessForOneTwoThreeShards) {
  const std::vector<std::string> queries = {
      kQhwSql,
      "SELECT * FROM Warnings",
      "SELECT * FROM Warnings WHERE week=2",
      "SELECT * FROM Teams",
      "SELECT * FROM Maintenance M JOIN Teams T ON M.responsible=T.name",
      // UNION over replicated tables only: one shard holds both blocks
      // whole (statements included), so the meet is computed locally.
      "SELECT name FROM Teams UNION ALL "
      "SELECT responsible FROM Maintenance",
      // Aggregates/ORDER BY/LIMIT route single-shard when only
      // replicated tables are touched — the shard answers exactly.
      "SELECT specialization, COUNT(*) AS n FROM Teams "
      "GROUP BY specialization",
      "SELECT * FROM Teams ORDER BY name DESC LIMIT 3",
  };
  for (uint32_t n : {1u, 2u, 3u}) {
    shards_.clear();
    coordinator_.reset();
    StartFleet(n);
    Client client = ConnectOrDie();
    for (const std::string& sql : queries) {
      Result<ClientAnswer> answer = client.Query(sql);
      ASSERT_TRUE(answer.ok())
          << "n=" << n << " sql=" << sql << ": "
          << answer.status().ToString();
      EXPECT_FALSE(answer->done.degraded);
      EXPECT_EQ(NormalizedBytes(*std::move(answer)), ReferenceBytes(sql))
          << "n=" << n << " sql=" << sql;
    }
  }
}

TEST_F(DistTest, ParseErrorsMatchSingleProcessVerbatim) {
  StartFleet(3);
  Client client = ConnectOrDie();
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  for (const char* bad :
       {"SELECT * FROM NoSuchTable", "SELECT * FROM", "garbage"}) {
    Status in_process = PlanSql(bad, adb.database()).status();
    ASSERT_FALSE(in_process.ok()) << bad;
    Result<ClientAnswer> remote = client.Query(bad);
    ASSERT_FALSE(remote.ok()) << bad;
    EXPECT_EQ(remote.status().code(), in_process.code()) << bad;
    EXPECT_EQ(remote.status().message(), in_process.message()) << bad;
  }
}

TEST_F(DistTest, UnsupportedRoutesAreRefusedNotWrong) {
  StartFleet(2);
  Client client = ConnectOrDie();
  // Self-join of the hashed table.
  Result<ClientAnswer> answer = client.Query(
      "SELECT * FROM Warnings A JOIN Warnings B ON A.ID=B.ID");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnimplemented);
  // Instance-aware over the hashed table.
  ClientQueryOptions aware;
  aware.instance_aware = true;
  answer = client.Query("SELECT * FROM Warnings", aware);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnimplemented);
  // ... but instance-aware over replicated tables is served (routed to
  // one shard, which holds those tables whole).
  answer = client.Query("SELECT * FROM Teams", aware);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
}

TEST_F(DistTest, NonDistributiveShapesOverHashedTablesAreRefused) {
  StartFleet(3);
  Client client = ConnectOrDie();
  // Each of these, merged naively, would be silently wrong: partial
  // per-shard counts, N*k rows under LIMIT, destroyed ORDER BY,
  // duplicated or annotation-stripped UNION blocks. The coordinator
  // must refuse
  // with kUnimplemented, never answer.
  for (const char* sql :
       {"SELECT COUNT(*) FROM Warnings",
        "SELECT day, COUNT(*) AS n FROM Warnings GROUP BY day",
        "SELECT * FROM Warnings LIMIT 2",
        "SELECT * FROM Warnings ORDER BY week",
        "SELECT day FROM Warnings UNION ALL SELECT name FROM Teams",
        "SELECT day FROM Warnings WHERE week=1 UNION ALL "
        "SELECT day FROM Warnings WHERE week=2"}) {
    Result<ClientAnswer> answer = client.Query(sql);
    ASSERT_FALSE(answer.ok()) << sql;
    EXPECT_EQ(answer.status().code(), StatusCode::kUnimplemented) << sql;
  }
}

TEST_F(DistTest, RejectPolicyIngestIntoHashedTableIsRefused) {
  StartFleet(2);
  Client client = ConnectOrDie();
  const std::vector<Tuple> row = {
      Tuple{Value("Mon"), Value(static_cast<int64_t>(90)), Value("rp"),
            Value("reject probe")}};
  // Default (reject) policy into a hashed table: the row's owner would
  // decide accept/reject from its local patterns while the violated
  // promise may live on another shard — refused, not silently unsound.
  Result<IngestResult> ack = client.Ingest("Warnings", row);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(ack.status().message().find("retract"), std::string::npos)
      << ack.status().ToString();
  // Retract policy is exact (every shard withdraws what it owns) and
  // reject policy against a replicated table applies identically on
  // every shard — both still served.
  EXPECT_TRUE(client.Ingest("Warnings", row, RetractPolicy()).ok());
  EXPECT_TRUE(client
                  .Ingest("Teams", {Tuple{Value("E"), Value("storage")}})
                  .ok());
}

TEST_F(DistTest, WritesFanOutAndReadBackDistributed) {
  StartFleet(3);
  Client client = ConnectOrDie();
  // Rows spread across shards: several distinct tuples, then a query
  // that must see all of them regardless of placement.
  std::vector<Tuple> rows;
  for (int i = 0; i < 8; ++i) {
    rows.push_back(Tuple{Value("d" + std::to_string(i)),
                         Value(static_cast<int64_t>(40 + i)),
                         Value("id" + std::to_string(i)), Value("fanout")});
  }
  Result<IngestResult> ack = client.Ingest("Warnings", rows, RetractPolicy());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  // Hashed-table acks sum the per-shard counters; every row was applied
  // on exactly its owner, so the totals match a single server's.
  EXPECT_EQ(ack->rows_ingested, 8u);
  EXPECT_EQ(ack->rows_rejected, 0u);
  Result<ClientAnswer> answer =
      client.Query("SELECT * FROM Warnings WHERE week=44");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->table.data.num_rows(), 1u);

  // Punctuation statements land on their signature's owner and show up
  // in distributed answers.
  Result<IngestResult> punct =
      client.Punctuate("Warnings", {{"*", "47", "*", "*"}});
  ASSERT_TRUE(punct.ok()) << punct.status().ToString();
  EXPECT_EQ(punct->punctuations, 1u);
  answer = client.Query("SELECT * FROM Warnings WHERE week=47");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GE(answer->table.patterns.size(), 1u);
}

TEST_F(DistTest, CoordinatorDedupsRetriedWrites) {
  StartFleet(2);
  Client client = ConnectOrDie();
  ClientWriteOptions pinned = RetractPolicy();
  pinned.writer_id = 1234;
  pinned.seq = 1;
  std::vector<Tuple> row = {
      Tuple{Value("Sat"), Value(static_cast<int64_t>(60)), Value("dup"),
            Value("dedup probe")}};
  Result<IngestResult> first = client.Ingest("Warnings", row, pinned);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->duplicate);
  EXPECT_EQ(first->rows_ingested, 1u);
  // Identical (writer_id, seq): every shard leg carries the client's
  // identity, so each shard serves it from its own dedup state with the
  // original counters, and it is applied nowhere.
  Result<IngestResult> second = client.Ingest("Warnings", row, pinned);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->duplicate);
  EXPECT_EQ(second->rows_ingested, 1u);
  Result<ClientAnswer> answer =
      client.Query("SELECT * FROM Warnings WHERE week=60");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->table.data.num_rows(), 1u);
}

TEST_F(DistTest, WriterDedupStateIsBoundedAndEvictionKeepsExactlyOnce) {
  // Write with 4 distinct writers, then retry the first one's
  // (writer_id, seq): the coordinator keeps no writer state of its own,
  // so the retry re-broadcasts — where every shard's own dedup applies
  // it exactly once.
  StartFleet(2);
  Client client = ConnectOrDie();
  for (uint64_t w = 1; w <= 4; ++w) {
    ClientWriteOptions pinned = RetractPolicy();
    pinned.writer_id = w;
    pinned.seq = 1;
    Result<IngestResult> ack = client.Ingest(
        "Warnings",
        {Tuple{Value("Sat"), Value(static_cast<int64_t>(90 + w)),
               Value("w" + std::to_string(w)), Value("evict probe")}},
        pinned);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_FALSE(ack->duplicate);
  }
  // The retry is re-broadcast, but no row is applied twice.
  ClientWriteOptions pinned = RetractPolicy();
  pinned.writer_id = 1;
  pinned.seq = 1;
  Result<IngestResult> retry = client.Ingest(
      "Warnings",
      {Tuple{Value("Sat"), Value(static_cast<int64_t>(91)), Value("w1"),
             Value("evict probe")}},
      pinned);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  Result<ClientAnswer> answer =
      client.Query("SELECT * FROM Warnings WHERE week=91");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->table.data.num_rows(), 1u);
}

TEST_F(DistTest, LostShardDegradesToUnavailableNeverWrongCompleteness) {
  StartFleet(3);
  Client client = ConnectOrDie();
  Result<ClientAnswer> before = client.Query(kQhwSql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Kill shard 1. A broadcast over the hashed table must now refuse
  // loudly: a partial union could omit rows AND claim completeness
  // promises the dead shard can no longer veto.
  shards_[1]->Stop();
  Client fresh = ConnectOrDie();
  Result<ClientAnswer> after = fresh.Query(kQhwSql);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(after.status().message().find("shard 1"), std::string::npos)
      << after.status().ToString();

  // Writes to the hashed table equally refuse (the dead shard may own
  // some of the rows).
  Result<IngestResult> ack = fresh.Ingest(
      "Warnings", {Tuple{Value("Mon"), Value(static_cast<int64_t>(70)),
                         Value("x"), Value("y")}},
      RetractPolicy());
  EXPECT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kUnavailable);
}

TEST_F(DistTest, ShardInfoAggregatesTheFleet) {
  StartFleet(3);
  Client client = ConnectOrDie();
  Result<ShardInfo> info = client.GetShardInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->shard_id, ShardInfo::kCoordinatorShardId);
  EXPECT_EQ(info->num_shards, 3u);
  bool saw_hashed = false;
  for (const ShardTableInfo& table : info->tables) {
    if (table.table == "Warnings") {
      EXPECT_TRUE(table.hashed);
      saw_hashed = true;
    } else {
      EXPECT_FALSE(table.hashed) << table.table;
    }
  }
  EXPECT_TRUE(saw_hashed);

  // Epochs are fleet-wide sums: a write through the coordinator bumps
  // the owner shard's epoch, so the sum strictly increases — the
  // convergence signal tools/ci.sh dist polls after a shard restart.
  uint64_t warnings_epoch = 0;
  for (const ShardTableInfo& table : info->tables) {
    if (table.table == "Warnings") warnings_epoch = table.epoch;
  }
  ASSERT_TRUE(client
                  .Ingest("Warnings",
                          {Tuple{Value("Tue"), Value(static_cast<int64_t>(80)),
                                 Value("e"), Value("epoch probe")}},
                          RetractPolicy())
                  .ok());
  info = client.GetShardInfo();
  ASSERT_TRUE(info.ok());
  for (const ShardTableInfo& table : info->tables) {
    if (table.table == "Warnings") {
      EXPECT_GT(table.epoch, warnings_epoch);
    }
  }
}

TEST_F(DistTest, CoordinatorRefusesMisconfiguredFleet) {
  // A shard started with the wrong --num-shards is caught by the
  // SHARD_INFO handshake, not by silently wrong routing.
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ServerOptions soptions;
  soptions.shard_id = 0;
  soptions.num_shards = 5;  // coordinator expects 2
  shards_.push_back(std::make_unique<Server>(std::move(adb), soptions));
  ASSERT_TRUE(shards_.back()->Start().ok());
  AnnotatedDatabase adb1 = MakeMaintenanceDatabase();
  ServerOptions soptions1;
  soptions1.shard_id = 1;
  soptions1.num_shards = 2;
  shards_.push_back(std::make_unique<Server>(std::move(adb1), soptions1));
  ASSERT_TRUE(shards_.back()->Start().ok());

  CoordinatorOptions coptions;
  coptions.shards = {{"127.0.0.1", shards_[0]->port()},
                     {"127.0.0.1", shards_[1]->port()}};
  coptions.hashed_tables = {"Warnings"};
  coordinator_ = std::make_unique<Coordinator>(std::move(coptions));
  ASSERT_TRUE(coordinator_->Start().ok());
  Client client = ConnectOrDie();
  Result<ClientAnswer> answer = client.Query(kQhwSql);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInternal);
  EXPECT_NE(answer.status().message().find("reports shard"),
            std::string::npos)
      << answer.status().ToString();
}

TEST_F(DistTest, PingStatsAndCheckpointWork) {
  StartFleet(2);
  Client client = ConnectOrDie();
  EXPECT_TRUE(client.Ping().ok());
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("requests_total"), std::string::npos);
  // No WAL on the in-process shards: checkpoint fails cleanly through
  // the coordinator with the shard's own verdict.
  Result<CheckpointResult> ckpt = client.Checkpoint();
  EXPECT_FALSE(ckpt.ok());
  EXPECT_EQ(ckpt.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// The coordinator serves from pcdbd's front end: idle connections hold
// no worker, and queued queries, CANCEL and drain behave as in pcdbd.

TEST_F(DistTest, IdleConnectionsDoNotStarveANewClient) {
  StartFleet(3);
  std::vector<Client> idle;
  for (int i = 0; i < 8; ++i) {
    idle.push_back(ConnectOrDie());
    ASSERT_TRUE(idle.back().Ping().ok());
  }
  ClientOptions copts;
  copts.recv_timeout_millis = 5000;
  Result<Client> ninth =
      Client::Connect("127.0.0.1", coordinator_->port(), copts);
  ASSERT_TRUE(ninth.ok()) << ninth.status().ToString();
  Result<ClientAnswer> answer = ninth->Query(kQhwSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(NormalizedBytes(*std::move(answer)), ReferenceBytes(kQhwSql));
}

TEST_F(DistTest, QueuedBroadcastIsCancelled) {
  StartFleet(3);
  Client client = ConnectOrDie();
  // Slow shard evaluation keeps the coordinator's four query slots busy
  // with the first four broadcasts while the fifth waits in its queue.
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(50));
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> id = client.SendQuery(kQhwSql);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(client.Cancel(ids.back()).ok());
  Result<ClientAnswer> cancelled = client.ReadAnswer(ids.back());
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
      << cancelled.status().ToString();
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    Result<ClientAnswer> answer = client.ReadAnswer(ids[i]);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  }
  EXPECT_EQ(coordinator_->metrics().CounterValue("cancelled_total"), 1u);
}

TEST_F(DistTest, DrainAnswersAnAdmittedBroadcast) {
  StartFleet(3);
  Client client = ConnectOrDie();
  Failpoints::Global().Activate("annotated.operator",
                                FailpointSpec::Sleep(50));
  Result<uint64_t> id = client.SendQuery(kQhwSql);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Let the coordinator admit the query before the drain starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ThreadPool drainer(2);  // a 1-thread pool runs tasks inline on Submit
  drainer.Submit([this] { coordinator_->Drain(); });
  Result<ClientAnswer> answer = client.ReadAnswer(*id);
  drainer.Wait();
  Failpoints::Global().Deactivate("annotated.operator");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(NormalizedBytes(*std::move(answer)), ReferenceBytes(kQhwSql));
  // Drained: the coordinator no longer listens.
  EXPECT_FALSE(Client::Connect("127.0.0.1", coordinator_->port()).ok());
}

// ---------------------------------------------------------------------------
// Fleet observability: STATS aggregation, profile merge, tracing

TEST_F(DistTest, FleetStatsAreTheSumOfTheShards) {
  StartFleet(3);
  Client client = ConnectOrDie();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(kQhwSql).ok());
  }
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  Result<JsonValue> doc = ParseJson(*stats);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << *stats;
  const JsonValue* fleet = doc->Find("fleet");
  const JsonValue* shards = doc->Find("shards");
  const JsonValue* coordinator = doc->Find("coordinator");
  ASSERT_NE(fleet, nullptr) << *stats;
  ASSERT_NE(shards, nullptr) << *stats;
  ASSERT_NE(coordinator, nullptr) << *stats;
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->items().size(), 3u);

  // Every fleet counter is exactly the sum of the per-shard values of
  // the same name. The "shards" array is the verbatim input the merge
  // consumed, so the payload is self-checking end to end.
  const JsonValue* fleet_counters = fleet->Find("counters");
  ASSERT_NE(fleet_counters, nullptr);
  ASSERT_FALSE(fleet_counters->members().empty());
  for (const auto& [name, value] : fleet_counters->members()) {
    uint64_t sum = 0;
    for (const JsonValue& shard : shards->items()) {
      const JsonValue* counters = shard.Find("counters");
      ASSERT_NE(counters, nullptr);
      const JsonValue* entry = counters->Find(name);
      if (entry == nullptr) continue;
      Result<uint64_t> v = entry->AsUint64();
      ASSERT_TRUE(v.ok()) << name;
      sum += *v;
    }
    Result<uint64_t> merged = value.AsUint64();
    ASSERT_TRUE(merged.ok()) << name;
    EXPECT_EQ(*merged, sum) << name;
  }
  const JsonValue* requests = fleet_counters->Find("requests_total");
  ASSERT_NE(requests, nullptr);
  Result<uint64_t> requests_total = requests->AsUint64();
  ASSERT_TRUE(requests_total.ok());
  // Each of the 3 broadcast queries fanned out to all 3 shards.
  EXPECT_GE(*requests_total, 9u);

  // Histograms merge bucket-by-bucket: each fleet bucket is the sum of
  // the shards' corresponding buckets, and sum_micros adds exactly.
  const JsonValue* fleet_hists = fleet->Find("histograms");
  ASSERT_NE(fleet_hists, nullptr);
  ASSERT_FALSE(fleet_hists->members().empty());
  for (const auto& [name, hist] : fleet_hists->members()) {
    const JsonValue* fleet_buckets = hist.Find("buckets");
    ASSERT_NE(fleet_buckets, nullptr) << name;
    const size_t num_buckets = fleet_buckets->items().size();
    std::vector<uint64_t> sums(num_buckets, 0);
    uint64_t micros_sum = 0;
    for (const JsonValue& shard : shards->items()) {
      const JsonValue* hists = shard.Find("histograms");
      ASSERT_NE(hists, nullptr);
      const JsonValue* shard_hist = hists->Find(name);
      if (shard_hist == nullptr) continue;
      const JsonValue* buckets = shard_hist->Find("buckets");
      ASSERT_NE(buckets, nullptr) << name;
      ASSERT_EQ(buckets->items().size(), num_buckets) << name;
      for (size_t b = 0; b < num_buckets; ++b) {
        Result<uint64_t> v = buckets->items()[b].AsUint64();
        ASSERT_TRUE(v.ok()) << name;
        sums[b] += *v;
      }
      const JsonValue* micros = shard_hist->Find("sum_micros");
      ASSERT_NE(micros, nullptr) << name;
      Result<uint64_t> m = micros->AsUint64();
      ASSERT_TRUE(m.ok()) << name;
      micros_sum += *m;
    }
    for (size_t b = 0; b < num_buckets; ++b) {
      Result<uint64_t> v = fleet_buckets->items()[b].AsUint64();
      ASSERT_TRUE(v.ok()) << name;
      EXPECT_EQ(*v, sums[b]) << name << " bucket " << b;
    }
    const JsonValue* fleet_micros = hist.Find("sum_micros");
    ASSERT_NE(fleet_micros, nullptr) << name;
    Result<uint64_t> fm = fleet_micros->AsUint64();
    ASSERT_TRUE(fm.ok()) << name;
    EXPECT_EQ(*fm, micros_sum) << name;
  }

  // Coordinator-local metrics stay under their own key, not mixed into
  // the fleet sums.
  const JsonValue* coord_counters = coordinator->Find("counters");
  ASSERT_NE(coord_counters, nullptr);
  const JsonValue* fleet_stats = coord_counters->Find("fleet_stats_total");
  ASSERT_NE(fleet_stats, nullptr) << *stats;
  Result<uint64_t> fleet_stats_total = fleet_stats->AsUint64();
  ASSERT_TRUE(fleet_stats_total.ok());
  EXPECT_GE(*fleet_stats_total, 1u);
  EXPECT_EQ(fleet_counters->Find("fleet_stats_total"), nullptr)
      << "coordinator-local counter leaked into the fleet aggregate";
}

TEST_F(DistTest, FleetProfileMergesEveryShardsProfile) {
  StartFleet(3);
  Client client = ConnectOrDie();
  ClientQueryOptions options;
  options.profile = true;
  Result<ClientAnswer> answer = client.Query(kQhwSql, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_FALSE(answer->profile.empty());
  Result<JsonValue> doc = ParseJson(answer->profile);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n"
                        << answer->profile;
  const JsonValue* distributed = doc->Find("distributed");
  ASSERT_NE(distributed, nullptr) << answer->profile;
  EXPECT_TRUE(distributed->is_bool() && distributed->bool_value());
  const JsonValue* route = doc->Find("route");
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->string_value(), "broadcast");
  const JsonValue* shards = doc->Find("shards");
  ASSERT_NE(shards, nullptr);
  Result<uint64_t> num_shards = shards->AsUint64();
  ASSERT_TRUE(num_shards.ok());
  EXPECT_EQ(*num_shards, 3u);
  const JsonValue* shard_millis = doc->Find("shard_millis");
  ASSERT_NE(shard_millis, nullptr);
  ASSERT_TRUE(shard_millis->is_array());
  EXPECT_EQ(shard_millis->items().size(), 3u);

  // Every shard contributed its full EXPLAIN ANALYZE tree, and the
  // operator work done across the fleet is bounded by the end-to-end
  // fleet time (scatter round trips + coordinator merge).
  const JsonValue* per_shard = doc->Find("per_shard");
  ASSERT_NE(per_shard, nullptr) << answer->profile;
  ASSERT_TRUE(per_shard->is_array());
  ASSERT_EQ(per_shard->items().size(), 3u);
  const JsonValue* fleet_total = doc->Find("fleet_micros_total");
  ASSERT_NE(fleet_total, nullptr);
  Result<double> total_micros = fleet_total->AsDouble();
  ASSERT_TRUE(total_micros.ok());
  double operator_sum = 0;
  for (const JsonValue& shard : per_shard->items()) {
    ASSERT_TRUE(shard.is_object())
        << "a shard profile is missing from the fleet merge: "
        << answer->profile;
    EXPECT_NE(shard.Find("operators"), nullptr);
    const JsonValue* op_micros = shard.Find("operator_micros");
    ASSERT_NE(op_micros, nullptr);
    Result<double> micros = op_micros->AsDouble();
    ASSERT_TRUE(micros.ok());
    operator_sum += *micros;
  }
  EXPECT_LE(operator_sum, *total_micros) << answer->profile;

  // The same query without the flag stays profile-free (the fleet
  // merge must not force profiling onto the shards).
  Result<ClientAnswer> plain = client.Query(kQhwSql);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->profile.empty());
}

/// Distributed counterpart of trace_test's SpanBalanceSurvivesTheFaultMatrix:
/// the coordinator's dist.* spans (and the shard servers' spans — the whole
/// fleet shares this process's tracer) must close exactly once no matter
/// where a failpoint errors or throws mid-scatter.
TEST_F(DistTest, DistributedSpanBalanceSurvivesTheFaultMatrix) {
  const bool was_enabled = Tracer::enabled();
  Failpoints::Global().Clear();
  Tracer::Global().SetEnabled(true);
  Tracer::Global().Reset();
  StartFleet(3);

  // Server-side spans can outlive the client's reply by a moment (the
  // flush span closes after the bytes are out), so balance is
  // "eventually zero": poll briefly before asserting.
  const auto settles_to_zero = [] {
    for (int i = 0; i < 400; ++i) {
      if (Tracer::Global().OpenSpanCount() == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Tracer::Global().OpenSpanCount() == 0;
  };
  {
    Client warm = ConnectOrDie();
    ASSERT_TRUE(warm.Query(kQhwSql).ok());
  }
  ASSERT_TRUE(settles_to_zero());

  for (const std::string& site : Failpoints::AllSites()) {
    for (int action = 0; action < 2; ++action) {
      Failpoints::Global().Activate(
          site, action == 0 ? FailpointSpec::Error(StatusCode::kUnavailable)
                            : FailpointSpec::Throw());
      try {
        // Reconnect per iteration: an armed server.accept/read/write
        // site may kill the previous connection. The failpoints are
        // process-global, so client-side socket sites fire on this
        // thread and throw out of Query — swallow them; the status is
        // the fault matrix's concern, only the span balance matters.
        // The recv timeout outlives the coordinator's 2s shard RPC
        // timeout, so a wedged fan-out resolves before the client does.
        ClientOptions copts;
        copts.recv_timeout_millis = 4000;
        Result<Client> client =
            Client::Connect("127.0.0.1", coordinator_->port(), copts);
        if (client.ok()) static_cast<void>(client->Query(kQhwSql));
      } catch (const FailpointError&) {
      }
      Failpoints::Global().Clear();
      EXPECT_TRUE(settles_to_zero())
          << site << (action == 0 ? " error" : " throw") << ": "
          << Tracer::Global().OpenSpanCount() << " span(s) still open";
    }
  }

  Tracer::Global().Reset();
  Tracer::Global().SetEnabled(was_enabled);
}

/// The distributed evaluation is the serial evaluation plus a dist.*
/// coordination layer — the shard-side work emits the same span
/// vocabulary the single process does, nothing renamed, nothing lost.
TEST_F(DistTest, DistributedSpanNamesMatchSerialModuloDistSpans) {
  const bool was_enabled = Tracer::enabled();
  Tracer::Global().SetEnabled(true);

  // Minimization picks its strategy (all_at_once / incremental / ...)
  // from local input size, which legitimately differs between a full
  // table and a shard slice — fold the variants into one name.
  const auto normalized = [](const TraceEvent& event) {
    std::string name = event.name;
    if (name.rfind("minimize", 0) == 0) return std::string("minimize");
    return name;
  };

  // Distributed: 3 shards + coordinator, one broadcast query, then a
  // full stop so every server thread has flushed its spans.
  Tracer::Global().Reset();
  StartFleet(3);
  {
    Client client = ConnectOrDie();
    ASSERT_TRUE(client.Query(kQhwSql).ok());
  }
  coordinator_->Stop();
  for (auto& shard : shards_) shard->Stop();
  std::set<std::string> dist_names;
  bool saw_scatter = false;
  for (const TraceEvent& event : Tracer::Global().SnapshotEvents()) {
    const std::string name = normalized(event);
    if (name == "dist.scatter") saw_scatter = true;
    if (name.rfind("dist.", 0) != 0) dist_names.insert(name);
  }
  EXPECT_TRUE(saw_scatter);

  // Serial: one plain Server, the same query, the same window.
  Tracer::Global().Reset();
  Server server(MakeMaintenanceDatabase(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    Result<Client> client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client->Query(kQhwSql).ok());
  }
  server.Stop();
  std::set<std::string> serial_names;
  for (const TraceEvent& event : Tracer::Global().SnapshotEvents()) {
    serial_names.insert(normalized(event));
  }

  Tracer::Global().Reset();
  Tracer::Global().SetEnabled(was_enabled);
  EXPECT_EQ(dist_names, serial_names);
}

}  // namespace
}  // namespace pcdb
