// Tests of the benchmark's own rules: tail-percentile sample floor,
// what set-up and per-op CPU include, how a wrong answer counts, seeded
// op-sequence digests and order-normalised answer digests.
//
//   cmake --build .bench_build/servebench --target servebench_test
//   ctest --test-dir .bench_build/servebench

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats.h"
#include "verify.h"
#include "workload.h"

namespace servebench {
namespace {

using pcdb::Result;

/// Spins until this process has used `seconds` more CPU.
void BurnCpu(double seconds) {
  const double until = ProcessCpuSeconds() + seconds;
  volatile uint64_t sink = 0;
  while (ProcessCpuSeconds() < until) sink = sink + 1;
}

OpRecord Read(uint32_t seq, double millis, bool ok = true) {
  OpRecord r;
  r.seq = seq;
  r.kind = OpKind::kRead;
  r.end_s = millis / 1000.0;
  r.ok = ok;
  return r;
}

OpRecord WriteOp(uint32_t seq, double millis) {
  OpRecord r = Read(seq, millis);
  r.kind = OpKind::kIngest;
  return r;
}

/// 200 reads and 200 writes of 1..200 ms: the smallest sample whose p95
/// has 10 samples beyond it.
std::vector<OpRecord> Baseline() {
  std::vector<OpRecord> records;
  for (uint32_t i = 0; i < 200; ++i) {
    records.push_back(Read(i, 1.0 + i));
    records.push_back(WriteOp(200 + i, 1.0 + i));
  }
  return records;
}

TEST(TailQuantile, NeedsTenSamplesBeyondIt) {
  // 5% of 199 samples is 9.95; of 200, 10.
  std::vector<double> v;
  for (int i = 0; i < 199; ++i) v.push_back(i);
  EXPECT_FALSE(TailQuantile(v, 0.95).ok());
  v.push_back(199);
  Result<double> p95 = TailQuantile(v, 0.95);
  ASSERT_TRUE(p95.ok()) << p95.status().ToString();
  EXPECT_NEAR(*p95, 189.05, 1e-9);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 99.5);
}

TEST(Summarize, FailsLoudlyWhenTheTailIsThin) {
  std::vector<OpRecord> records = Baseline();
  records.resize(records.size() - 2);  // 199 reads and 199 writes
  EXPECT_FALSE(Summarize(records, Interval{1.0, 1.0}).ok());
}

TEST(Summarize, CpuPerOpDividesByCompletedOpsOnly) {
  std::vector<OpRecord> records = Baseline();
  records.push_back(Read(400, 5.0, /*ok=*/false));  // an error or a shed
  Result<PhaseSummary> s = Summarize(records, Interval{2.0, 0.8});
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->attempted, 401u);
  EXPECT_EQ(s->failed, 1u);
  EXPECT_DOUBLE_EQ(s->cpu_ms_per_op, 800.0 / 400.0);
  EXPECT_DOUBLE_EQ(s->read_qps, 200 / 2.0);
}

TEST(Summarize, WrongAnswerCountsAsFailedNotSlow) {
  std::vector<OpRecord> records = Baseline();
  Result<PhaseSummary> before = Summarize(records, Interval{1.0, 1.0});
  ASSERT_TRUE(before.ok());
  // A read that took 10 s and then failed verification.
  OpRecord wrong = Read(400, 10000.0);
  wrong.ok = false;
  records.push_back(wrong);
  Result<PhaseSummary> after = Summarize(records, Interval{1.0, 1.0});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->failed, 1u);
  EXPECT_EQ(after->reads, before->reads);
  EXPECT_DOUBLE_EQ(after->read_p50_ms, before->read_p50_ms);
  EXPECT_DOUBLE_EQ(after->read_p95_ms, before->read_p95_ms);
}

TEST(RunPhases, SetupExcludesPreparationAndMeasuredCpuExcludesSetup) {
  int restarts = 0;
  int teardowns = 0;
  Phases phases;
  phases.setup_repeats = 3;
  phases.prepare = [] {
    BurnCpu(0.3);  // data generation and durable state
    return pcdb::Status::OK();
  };
  phases.restart = [&] {
    ++restarts;
    BurnCpu(0.01);
    return pcdb::Status::OK();
  };
  phases.teardown = [&] { ++teardowns; };
  phases.measure = [] {
    BurnCpu(0.05);
    return pcdb::Status::OK();
  };
  Result<PhaseTimes> times = RunPhases(phases);
  ASSERT_TRUE(times.ok()) << times.status().ToString();
  EXPECT_EQ(restarts, 3);
  EXPECT_EQ(teardowns, 2);
  ASSERT_EQ(times->setups.size(), 3u);
  EXPECT_GE(times->setup.cpu_s, 0.01);
  EXPECT_LT(times->setup.cpu_s, 0.15);
  EXPECT_LT(times->setup.wall_s, 0.15);
  EXPECT_GE(times->measured.cpu_s, 0.05);
  EXPECT_LT(times->measured.cpu_s, 0.15);
}

TEST(Workload, OpDigestFollowsTheSeedOnly) {
  const BaseData base = MakeBaseData();
  for (const WorkloadSpec& spec : Workloads()) {
    const uint64_t a = OpDigest(MakeWorkload(spec, 7, 1.0, base));
    EXPECT_EQ(a, OpDigest(MakeWorkload(spec, 7, 1.0, base))) << spec.name;
    EXPECT_NE(a, OpDigest(MakeWorkload(spec, 8, 1.0, base))) << spec.name;
  }
}

TEST(Workload, SelfJoinReadsNeverRepeat) {
  const BaseData base = MakeBaseData();
  const Workload w = MakeWorkload(*FindWorkload("selfjoin_cold"), 3, 1.0, base);
  std::vector<bool> seen(w.queries.size(), false);
  size_t reads = 0;
  for (const Op& op : w.ops) {
    if (op.kind != OpKind::kRead) continue;
    EXPECT_FALSE(seen[op.index]);
    seen[op.index] = true;
    ++reads;
  }
  EXPECT_EQ(reads, w.queries.size());
}

TEST(AnswerDigest, IgnoresOrderButNotContent) {
  const BaseData base = MakeBaseData();
  Result<pcdb::AnnotatedTable> answer = ReferenceAnswer(
      "SELECT * FROM ne WHERE state='state_1'", base.db);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_GT(answer->data.num_rows(), 1u);
  ASSERT_GT(answer->patterns.size(), 1u);
  const uint64_t digest = AnswerDigest(*answer);

  pcdb::AnnotatedTable reordered = *answer;
  std::vector<pcdb::Tuple> rows = reordered.data.rows();
  std::reverse(rows.begin(), rows.end());
  reordered.data.Clear();
  for (pcdb::Tuple& row : rows) reordered.data.AppendUnchecked(std::move(row));
  std::vector<pcdb::Pattern> patterns = reordered.patterns.patterns();
  std::reverse(patterns.begin(), patterns.end());
  reordered.patterns = pcdb::PatternSet(std::move(patterns));
  EXPECT_EQ(AnswerDigest(reordered), digest);

  pcdb::AnnotatedTable missing_row = *answer;
  std::vector<pcdb::Tuple> fewer = missing_row.data.rows();
  fewer.pop_back();
  missing_row.data.Clear();
  for (pcdb::Tuple& row : fewer) missing_row.data.AppendUnchecked(std::move(row));
  EXPECT_NE(AnswerDigest(missing_row), digest);

  pcdb::AnnotatedTable duplicated_row = *answer;
  duplicated_row.data.AppendUnchecked(duplicated_row.data.row(0));
  EXPECT_NE(AnswerDigest(duplicated_row), digest);

  pcdb::AnnotatedTable degraded = *answer;
  degraded.degraded = true;
  EXPECT_NE(AnswerDigest(degraded), digest);
}

}  // namespace
}  // namespace servebench
