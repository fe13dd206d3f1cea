#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "pattern/annotated_eval.h"
#include "pattern/entailment.h"
#include "pattern/minimize.h"
#include "pattern/summary.h"
#include "relational/csv.h"
#include "relational/evaluator.h"
#include "workloads/maintenance_example.h"

namespace pcdb {
namespace {

Pattern MakePattern(const std::vector<std::string>& fields) {
  std::vector<Pattern::Cell> cells;
  cells.reserve(fields.size());
  for (const std::string& f : fields) {
    Pattern::Cell cell;
    if (f != "*") cell.emplace(f);
    cells.push_back(std::move(cell));
  }
  return Pattern(std::move(cells));
}

/// n pairwise-incomparable patterns of arity n: pattern i holds one
/// constant at position i. The minimal set is the whole input.
PatternSet IncomparableSet(size_t n) {
  PatternSet out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> fields(n, "*");
    fields[i] = "c";
    out.Add(MakePattern(fields));
  }
  return out;
}

/// R(a, b) with three incomparable base patterns — small enough for the
/// exponential ground-truth entailment checker.
AnnotatedDatabase MakeTinyDatabase() {
  AnnotatedDatabase adb;
  EXPECT_TRUE(adb.CreateTable("R", Schema({{"a", ValueType::kString},
                                           {"b", ValueType::kString}}))
                  .ok());
  EXPECT_TRUE(adb.AddRow("R", {"x", "p"}).ok());
  EXPECT_TRUE(adb.AddRow("R", {"y", "q"}).ok());
  EXPECT_TRUE(adb.AddPattern("R", {"x", "*"}).ok());
  EXPECT_TRUE(adb.AddPattern("R", {"y", "*"}).ok());
  EXPECT_TRUE(adb.AddPattern("R", {"*", "q"}).ok());
  return adb;
}

// ---------------------------------------------------------------------------
// ExecContext unit semantics.

TEST(ExecContextTest, DefaultContextIsUnboundedAndFree) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.unbounded());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(ctx.CheckRows(size_t{1} << 60).ok());
  EXPECT_TRUE(ctx.CheckPatterns(size_t{1} << 60).ok());
  EXPECT_TRUE(ctx.CheckMemory(size_t{1} << 60).ok());
  EXPECT_TRUE(ExecContext::Unbounded().unbounded());
}

TEST(ExecContextTest, BudgetsTripWithResourceExhausted) {
  ExecContext ctx;
  ctx.WithRowBudget(10).WithPatternBudget(5).WithMemoryBudget(100);
  EXPECT_FALSE(ctx.unbounded());
  EXPECT_TRUE(ctx.CheckRows(10).ok());
  EXPECT_EQ(ctx.CheckRows(11).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.CheckPatterns(5).ok());
  EXPECT_EQ(ctx.CheckPatterns(6).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.CheckMemory(100).ok());
  EXPECT_EQ(ctx.CheckMemory(101).code(), StatusCode::kResourceExhausted);
}

TEST(ExecContextTest, ZeroDeadlineTripsEveryCheck) {
  ExecContext ctx;
  ctx.WithDeadlineAfterMillis(0);
  EXPECT_TRUE(ctx.deadline_exceeded());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kTimeout);
  EXPECT_EQ(ctx.CheckRows(0).code(), StatusCode::kTimeout);
}

TEST(ExecContextTest, CancellationWinsOverDeadline) {
  auto token = std::make_shared<CancellationToken>();
  ExecContext ctx;
  ctx.WithCancellationToken(token).WithDeadlineAfterMillis(0);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kTimeout);  // not yet cancelled
  token->Cancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// A zero deadline returns kTimeout cleanly from every governed entry
// point — no crash, no partial result.

TEST(DeadlineTest, CsvLoadTimesOut) {
  ExecContext ctx;
  ctx.WithDeadlineAfterMillis(0);
  Schema schema({{"a", ValueType::kInt64}});
  auto result = ReadCsvString("a\n1\n2\n", schema, true, ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(DeadlineTest, EvaluateTimesOut) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExprPtr plan = Expr::Join(Expr::Scan("Warnings"),
                            Expr::Scan("Maintenance"), "ID", "ID");
  ExecContext ctx;
  ctx.WithDeadlineAfterMillis(0);
  auto result = Evaluate(*plan, adb.database(), ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(DeadlineTest, AnnotatedEvaluationTimesOut) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExecContext ctx;
  ctx.WithDeadlineAfterMillis(0);
  auto result = EvaluateAnnotated(*MakeHardwareWarningsQuery(), adb, {}, ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(DeadlineTest, ComputeQueryPatternsTimesOut) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExecContext ctx;
  ctx.WithDeadlineAfterMillis(0);
  bool degraded = true;
  auto result = ComputeQueryPatterns(*MakeHardwareWarningsQuery(), adb, {},
                                     ctx, &degraded);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_FALSE(degraded);  // a timeout is a failure, not a degradation
}

TEST(DeadlineTest, MinimizeTimesOut) {
  PatternSet input = IncomparableSet(6);
  ExecContext ctx;
  ctx.WithDeadlineAfterMillis(0);
  for (MinimizeApproach approach :
       {MinimizeApproach::kAllAtOnce, MinimizeApproach::kIncremental,
        MinimizeApproach::kSortedIncremental}) {
    auto result = Minimize(input, approach,
                           PatternIndexKind::kDiscriminationTree, ctx);
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  }
}

TEST(CancellationTest, PreCancelledTokenCancelsEveryEntryPoint) {
  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  ExecContext ctx;
  ctx.WithCancellationToken(token);

  Schema schema({{"a", ValueType::kInt64}});
  EXPECT_EQ(ReadCsvString("a\n1\n", schema, true, ctx).status().code(),
            StatusCode::kCancelled);

  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  EXPECT_EQ(Evaluate(*Expr::Scan("Warnings"), adb.database(), ctx)
                .status()
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(EvaluateAnnotated(*MakeHardwareWarningsQuery(), adb, {}, ctx)
                .status()
                .code(),
            StatusCode::kCancelled);
  bool degraded = false;
  EXPECT_EQ(ComputeQueryPatterns(*MakeHardwareWarningsQuery(), adb, {}, ctx,
                                 &degraded)
                .status()
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(Minimize(IncomparableSet(4), MinimizeApproach::kAllAtOnce,
                     PatternIndexKind::kDiscriminationTree, ctx)
                .status()
                .code(),
            StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Row and memory budgets.

TEST(BudgetTest, CsvRowBudget) {
  Schema schema({{"a", ValueType::kInt64}});
  ExecContext ctx;
  ctx.WithRowBudget(3);
  EXPECT_TRUE(
      ReadCsvString("a\n1\n2\n3\n", schema, true, ctx).ok());
  EXPECT_EQ(ReadCsvString("a\n1\n2\n3\n4\n5\n", schema, true, ctx)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(BudgetTest, EvaluateRowBudget) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExprPtr plan = Expr::Scan("Warnings");  // 7 rows
  ExecContext tight;
  tight.WithRowBudget(2);
  EXPECT_EQ(Evaluate(*plan, adb.database(), tight).status().code(),
            StatusCode::kResourceExhausted);
  ExecContext roomy;
  roomy.WithRowBudget(1000);
  EXPECT_TRUE(Evaluate(*plan, adb.database(), roomy).ok());
}

TEST(BudgetTest, MinimizeMemoryBudget) {
  ExecContext ctx;
  ctx.WithMemoryBudget(1);  // any index allocation exceeds one byte
  auto result = Minimize(IncomparableSet(5), MinimizeApproach::kAllAtOnce,
                         PatternIndexKind::kDiscriminationTree, ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, MinimizePatternBudget) {
  PatternSet input = IncomparableSet(5);  // minimal set = all 5
  ExecContext tight;
  tight.WithPatternBudget(3);
  EXPECT_EQ(Minimize(input, MinimizeApproach::kSortedIncremental,
                     PatternIndexKind::kDiscriminationTree, tight)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  ExecContext exact;
  exact.WithPatternBudget(5);
  auto ok = Minimize(input, MinimizeApproach::kSortedIncremental,
                     PatternIndexKind::kDiscriminationTree, exact);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.ValueOrDie().SetEquals(input));
}

// ---------------------------------------------------------------------------
// SummarizePatterns: the sound degradation target.

TEST(SummarizeTest, EmptyBudgetOrInputGivesEmptySummary) {
  EXPECT_TRUE(SummarizePatterns(PatternSet(), 3).empty());
  EXPECT_TRUE(SummarizePatterns(IncomparableSet(3), 0).empty());
}

TEST(SummarizeTest, KeepsTheMostGeneralPatterns) {
  PatternSet input;
  input.Add(MakePattern({"a", "*"}));
  input.Add(MakePattern({"*", "*"}));
  input.Add(MakePattern({"*", "b"}));
  PatternSet one = SummarizePatterns(input, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0].IsAllWildcards());
  // The all-wildcard pattern subsumes everything else, so a larger
  // budget adds no dominated entries.
  EXPECT_EQ(SummarizePatterns(input, 3).size(), 1u);
}

TEST(SummarizeTest, ReturnsABudgetSizedSubsetOfTheInput) {
  PatternSet input = IncomparableSet(5);
  PatternSet out = SummarizePatterns(input, 2);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(IsMinimal(out));
  for (const Pattern& p : out) {
    EXPECT_TRUE(input.AnySubsumes(p));
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation end to end: a pattern budget of 1 must yield a
// degraded-but-sound summary, not an error.

TEST(DegradationTest, ComputeQueryPatternsDegradesToASoundSummary) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExprPtr query = MakeHardwareWarningsQuery();
  auto exact = ComputeQueryPatterns(*query, adb);
  ASSERT_TRUE(exact.ok());

  ExecContext ctx;
  ctx.WithPatternBudget(1);
  bool degraded = false;
  auto budgeted = ComputeQueryPatterns(*query, adb, {}, ctx, &degraded);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  EXPECT_TRUE(degraded);  // Warnings alone carries 3 incomparable patterns
  EXPECT_LE(budgeted.ValueOrDie().size(), 1u);
  // Sound: every degraded pattern is entailed by the exact result.
  for (const Pattern& p : budgeted.ValueOrDie()) {
    EXPECT_TRUE(exact.ValueOrDie().AnySubsumes(p)) << p.ToString();
  }
}

TEST(DegradationTest, DegradedPatternsPassTheGroundTruthChecker) {
  AnnotatedDatabase adb = MakeTinyDatabase();
  ExprPtr query = Expr::Scan("R");
  ExecContext ctx;
  ctx.WithPatternBudget(1);
  bool degraded = false;
  auto budgeted = ComputeQueryPatterns(*query, adb, {}, ctx, &degraded);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  EXPECT_TRUE(degraded);
  ASSERT_EQ(budgeted.ValueOrDie().size(), 1u);
  // Definition 4 on the instance: the surviving summary pattern is a
  // query completeness pattern the base patterns really entail.
  for (const Pattern& p : budgeted.ValueOrDie()) {
    auto entailed = EntailsWrtInstance(adb, *query, p);
    ASSERT_TRUE(entailed.ok()) << entailed.status();
    EXPECT_TRUE(entailed.ValueOrDie()) << p.ToString();
  }
}

TEST(DegradationTest, EvaluateAnnotatedMarksDegradedResults) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExprPtr query = MakeHardwareWarningsQuery();
  auto exact = EvaluateAnnotated(*query, adb);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact.ValueOrDie().degraded);

  ExecContext ctx;
  ctx.WithPatternBudget(1);
  AnnotatedEvalInfo info;
  auto budgeted = EvaluateAnnotated(*query, adb, {}, ctx, &info);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  const AnnotatedTable& result = budgeted.ValueOrDie();
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(info.degradations, 0u);
  EXPECT_LE(result.patterns.size(), 1u);
  // Degradation only coarsens the metadata; the answer itself is exact.
  EXPECT_TRUE(result.data.BagEquals(exact.ValueOrDie().data));
  for (const Pattern& p : result.patterns) {
    EXPECT_TRUE(exact.ValueOrDie().patterns.AnySubsumes(p)) << p.ToString();
  }
  // The rendering warns the reader that the pattern list is a summary.
  EXPECT_NE(result.ToString().find("degraded"), std::string::npos);
}

TEST(DegradationTest, GenerousBudgetDoesNotDegrade) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ExprPtr query = MakeHardwareWarningsQuery();
  auto exact = EvaluateAnnotated(*query, adb);
  ASSERT_TRUE(exact.ok());
  ExecContext ctx;
  ctx.WithPatternBudget(10000);
  auto governed = EvaluateAnnotated(*query, adb, {}, ctx);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_FALSE(governed.ValueOrDie().degraded);
  EXPECT_TRUE(governed.ValueOrDie().patterns.SetEquals(
      exact.ValueOrDie().patterns));
}

}  // namespace
}  // namespace pcdb
