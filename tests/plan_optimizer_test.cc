#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pattern/annotated_eval.h"
#include "relational/evaluator.h"
#include "sql/parser.h"
#include "sql/plan_optimizer.h"
#include "sql/planner.h"
#include "workloads/maintenance_example.h"
#include "workloads/wikipedia.h"

namespace pcdb {
namespace {

constexpr const char* kQhwSql =
    "SELECT * FROM Warnings W JOIN Maintenance M ON W.ID=M.ID "
    "JOIN Teams T ON M.responsible=T.name "
    "WHERE W.week=2 AND T.specialization='hardware'";

TEST(PlanWithOrderTest, AllOrdersProduceSameAnswerBag) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  auto stmt = ParseSelect(kQhwSql);
  ASSERT_TRUE(stmt.ok());
  auto reference = Evaluate(*PlanSelect(*stmt, adb.database()),
                            adb.database());
  ASSERT_TRUE(reference.ok());
  std::vector<size_t> order = {0, 1, 2};
  do {
    auto plan = PlanSelectWithOrder(*stmt, adb.database(), order);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = Evaluate(*plan, adb.database());
    ASSERT_TRUE(result.ok());
    // Column order differs with the join order; compare row counts and
    // a projected column that exists in all plans.
    EXPECT_EQ(result->num_rows(), reference->num_rows());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(PlanWithOrderTest, AllOrdersProduceEquivalentPatterns) {
  // Soundness + completeness corollary: the computed pattern sets of
  // equivalent plans describe the same complete parts (modulo the
  // plans' column permutations, so compare coverage of the answer rows).
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  auto stmt = ParseSelect(kQhwSql);
  ASSERT_TRUE(stmt.ok());
  std::vector<size_t> order = {0, 1, 2};
  std::vector<size_t> guaranteed_counts;
  do {
    auto plan = PlanSelectWithOrder(*stmt, adb.database(), order);
    ASSERT_TRUE(plan.ok());
    auto result = EvaluateAnnotated(*plan, adb);
    ASSERT_TRUE(result.ok());
    size_t guaranteed = 0;
    for (const Tuple& row : result->data.rows()) {
      if (result->patterns.AnySubsumesTuple(row)) ++guaranteed;
    }
    guaranteed_counts.push_back(guaranteed);
  } while (std::next_permutation(order.begin(), order.end()));
  for (size_t g : guaranteed_counts) EXPECT_EQ(g, guaranteed_counts[0]);
}

TEST(PlanWithOrderTest, RejectsBadOrders) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  auto stmt = ParseSelect(kQhwSql);
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(PlanSelectWithOrder(*stmt, adb.database(), {0, 1}).ok());
  EXPECT_FALSE(PlanSelectWithOrder(*stmt, adb.database(), {0, 0, 1}).ok());
  EXPECT_FALSE(PlanSelectWithOrder(*stmt, adb.database(), {0, 1, 5}).ok());
}

TEST(PlanOptimizerTest, EnumeratesAllOrders) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  auto optimized = OptimizeSql(kQhwSql, adb, PlanObjective::kData);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_EQ(optimized->candidates.size(), 6u);  // 3! orders
  // Candidates are sorted by cost.
  for (size_t i = 1; i < optimized->candidates.size(); ++i) {
    EXPECT_LE(optimized->candidates[i - 1].cost,
              optimized->candidates[i].cost);
  }
  EXPECT_EQ(optimized->best.cost, optimized->candidates[0].cost);
}

TEST(PlanOptimizerTest, BestPlanEvaluatesCorrectly) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  for (PlanObjective objective :
       {PlanObjective::kData, PlanObjective::kMetadata}) {
    auto optimized = OptimizeSql(kQhwSql, adb, objective);
    ASSERT_TRUE(optimized.ok());
    auto result = Evaluate(optimized->best.plan, adb.database());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->num_rows(), 3u);
  }
}

TEST(PlanOptimizerTest, DataObjectivePrefersSelectiveJoinsFirst) {
  // country ⋈ city (278 rows) vs city ⋈ school (huge): a data-optimal
  // plan for the 3-way Q5 must not start with the state join.
  WikipediaConfig config;
  config.num_cities = 3000;
  config.num_schools = 800;
  config.num_states = 40;
  AnnotatedDatabase adb = MakeWikipediaDatabase(config);
  auto optimized = OptimizeSql(
      "SELECT * FROM country, city, school WHERE "
      "country.capital=city.name AND city.state=school.state",
      adb, PlanObjective::kData);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  // The most expensive candidate should cost far more than the best:
  // the optimizer has a real decision to make here.
  EXPECT_GT(optimized->candidates.back().cost,
            optimized->best.cost * 2);
}

TEST(PlanOptimizerTest, MetadataCostIsPatternDriven) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  auto optimized = OptimizeSql(kQhwSql, adb, PlanObjective::kMetadata);
  ASSERT_TRUE(optimized.ok());
  EXPECT_GT(optimized->best.cost, 0);
  // Metadata costs are tiny numbers of patterns, not row estimates.
  EXPECT_LT(optimized->best.cost, 1000);
}

TEST(PlanOptimizerTest, ObjectivesCanDisagree) {
  // Construct a database where the pattern-heavy table is tiny and the
  // pattern-light table is huge: a data-driven optimizer and a
  // metadata-driven optimizer should rank orders differently.
  AnnotatedDatabase adb;
  ASSERT_TRUE(adb.CreateTable("big", Schema({{"k", ValueType::kInt64},
                                             {"p", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(adb.CreateTable("small", Schema({{"k", ValueType::kInt64},
                                               {"q", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(adb.CreateTable("mid", Schema({{"k", ValueType::kInt64},
                                             {"r", ValueType::kInt64}}))
                  .ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(adb.AddRow("big", {Value(i % 50), Value(i)}).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(adb.AddRow("small", {Value(i), Value(i)}).ok());
    // Many patterns on the small table.
    ASSERT_TRUE(
        adb.AddPattern("small", {std::to_string(i), std::to_string(i)}).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(adb.AddRow("mid", {Value(i % 20), Value(i)}).ok());
  }
  ASSERT_TRUE(adb.AddPattern("big", {"*", "*"}).ok());
  ASSERT_TRUE(adb.AddPattern("mid", {"*", "*"}).ok());
  const std::string sql =
      "SELECT * FROM big, small, mid WHERE big.k=small.k AND small.k=mid.k";
  auto data_opt = OptimizeSql(sql, adb, PlanObjective::kData);
  auto meta_opt = OptimizeSql(sql, adb, PlanObjective::kMetadata);
  ASSERT_TRUE(data_opt.ok());
  ASSERT_TRUE(meta_opt.ok());
  // Both must at least produce valid plans with finite costs; whether
  // the orders differ depends on statistics, but the metadata cost of
  // the metadata-best plan can never exceed that of the data-best plan.
  size_t meta_cost_of_meta_best = 0;
  size_t meta_cost_of_data_best = 0;
  ASSERT_TRUE(ComputeQueryPatterns(meta_opt->best.plan, adb,
                                   AnnotatedEvalOptions{},
                                   &meta_cost_of_meta_best)
                  .ok());
  ASSERT_TRUE(ComputeQueryPatterns(data_opt->best.plan, adb,
                                   AnnotatedEvalOptions{},
                                   &meta_cost_of_data_best)
                  .ok());
  EXPECT_LE(meta_cost_of_meta_best, meta_cost_of_data_best);
}

/// One plan per operator kind over the maintenance database, plus the
/// paper's Q_hw: the table that pins ComputeQueryPatterns (the
/// evaluation recursion without data) to EvaluateAnnotated's patterns.
std::vector<std::pair<std::string, ExprPtr>> OperatorPlans() {
  const ExprPtr warnings = Expr::Scan("Warnings");
  return {
      {"scan", warnings},
      {"select_const", Expr::SelectConst(warnings, "week", 2)},
      {"select_attr_eq",
       Expr::SelectAttrEq(Expr::CrossJoin(Expr::Scan("Warnings", "W"),
                                          Expr::Scan("Maintenance", "M")),
                          "W.ID", "M.ID")},
      {"project_out", Expr::ProjectOut(warnings, "day")},
      {"rearrange", Expr::Rearrange(warnings, {"ID", "week"})},
      {"join", Expr::Join(warnings, Expr::Scan("Maintenance"), "ID", "ID")},
      {"cross_product",
       Expr::CrossJoin(Expr::Scan("Maintenance"), Expr::Scan("Teams"))},
      {"aggregate",
       Expr::Aggregate(warnings, {"week"}, {AggSpec{AggFunc::kCount, "", "n"}})},
      {"sort", Expr::Sort(warnings, {"day"})},
      {"limit", Expr::Limit(Expr::Scan("Teams"), 2)},
      {"union", Expr::Union(Expr::SelectConst(warnings, "week", 1),
                            Expr::SelectConst(warnings, "week", 2))},
      {"q_hw", MakeHardwareWarningsQuery()},
  };
}

/// `adb` with every table emptied of rows; schemas and patterns kept.
AnnotatedDatabase WithoutRows(const AnnotatedDatabase& adb) {
  AnnotatedDatabase out;
  for (const std::string& name : adb.database().TableNames()) {
    auto table = adb.database().GetTable(name);
    EXPECT_TRUE(table.ok());
    EXPECT_TRUE(out.CreateTable(name, (*table)->schema()).ok());
    out.SetPatterns(name, adb.patterns(name));
  }
  return out;
}

TEST(ComputeQueryPatternsTest, MatchesAnnotatedEvaluation) {
  // ComputeQueryPatterns is EvaluateAnnotated's recursion run without
  // data, so it must yield the same patterns for every operator kind —
  // also over a copy of the database whose tables hold no rows.
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  AnnotatedDatabase empty = WithoutRows(adb);
  std::set<ExprKind> kinds;
  std::function<void(const Expr&)> collect = [&](const Expr& e) {
    kinds.insert(e.kind());
    if (e.left() != nullptr) collect(*e.left());
    if (e.right() != nullptr) collect(*e.right());
  };
  for (const auto& [name, plan] : OperatorPlans()) {
    collect(*plan);
    auto full = EvaluateAnnotated(plan, adb);
    ASSERT_TRUE(full.ok()) << name << ": " << full.status();
    for (const AnnotatedDatabase* db : {&adb, &empty}) {
      auto schema_only = ComputeQueryPatterns(plan, *db);
      ASSERT_TRUE(schema_only.ok()) << name << ": " << schema_only.status();
      EXPECT_TRUE(schema_only->SetEquals(full->patterns))
          << name << (db == &empty ? " (no rows): " : ": ")
          << schema_only->ToString() << " vs " << full->patterns.ToString();
    }
  }
  EXPECT_EQ(kinds.size(), 10u);  // every ExprKind, kScan .. kUnion
}

TEST(ComputeQueryPatternsTest, RejectsInstanceAwareOptions) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  AnnotatedEvalOptions options;
  options.instance_aware = true;
  auto result =
      ComputeQueryPatterns(MakeHardwareWarningsQuery(), adb, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ComputeQueryPatternsTest, ReportsIntermediateCost) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  size_t cost = 0;
  auto result = ComputeQueryPatterns(MakeHardwareWarningsQuery(), adb,
                                     AnnotatedEvalOptions{}, &cost);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(cost, result->size());
}

}  // namespace
}  // namespace pcdb
