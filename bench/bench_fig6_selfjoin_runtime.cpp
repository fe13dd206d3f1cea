// Figure 6: runtime of the instance-aware self-join of two partially
// complete fact tables, as a function of the number of input patterns.
//
// Paper's finding to reproduce: runtime grows quadratically in the
// number of completeness patterns (50–150 per side, 1000 tuples in the
// database, 20 runs per point), just as a normal join's cost grows with
// its input sizes. Also serves as the ablation for the pattern-join
// strategy (cross-product-then-select vs the pushed partitioned form).

#include "bench_util.h"
#include "common/timer.h"
#include "pattern/minimize.h"
#include "pattern/promotion.h"

namespace {

using namespace pcdb;
using namespace pcdb::bench;

PatternSet RandomSubset(const PatternSet& pool, size_t n, Rng* rng) {
  PatternSet out;
  out.Reserve(n);
  std::vector<size_t> indices(pool.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng->Shuffle(&indices);
  for (size_t i = 0; i < n && i < indices.size(); ++i) {
    out.Add(pool[indices[i]]);
  }
  return out;
}

}  // namespace

int main() {
  Banner("Figure 6",
         "instance-aware self-join runtime vs number of input patterns");

  NetworkElementsConfig config;
  config.num_rows = 1000;  // paper: 1000 tuples in the database
  NetworkElementsData data = GenerateNetworkElements(config);
  Table fact = DimensionProjection(data);
  PatternSet pool = NetworkPatterns(data, 1200, /*seed=*/31);
  std::printf("pattern pool: %zu; self-join on the 'vendor' attribute; "
              "20 runs per point\n\n",
              pool.size());
  const size_t join_attr = 2;  // vendor

  std::printf("%9s %12s %12s   %s\n", "patterns", "median ms", "p95 ms",
              "(promotion enabled)");
  Rng rng(13);
  double first_median = 0;
  size_t first_n = 0;
  for (size_t n : {50u, 75u, 100u, 125u, 150u}) {
    std::vector<double> millis;
    for (int run = 0; run < 20; ++run) {
      PatternSet left = RandomSubset(pool, n, &rng);
      PatternSet right = RandomSubset(pool, n, &rng);
      WallTimer timer;
      PatternSet joined = InstanceAwarePatternJoin(left, join_attr, fact,
                                                   right, join_attr, fact);
      Minimize(joined);
      millis.push_back(timer.ElapsedMillis());
    }
    double median = Median(millis);
    if (first_n == 0) {
      first_n = n;
      first_median = median;
    }
    std::printf("%9zu %12.2f %12.2f\n", n, median, Quantile(millis, 0.95));
    JsonResultLine("fig6_selfjoin", "instance_aware", n, median);
  }
  std::printf("\nquadratic check: scaling patterns by 3x (50 -> 150) should "
              "scale runtime by ~9x\n(paper reports quadratic growth); "
              "baseline at %zu patterns: %.2f ms\n\n",
              first_n, first_median);

  // Strategy ablation (DESIGN.md §4.1): the pushed partitioned join vs
  // the literal cross-product-and-select definition, schema level only.
  std::printf("pattern-join strategy ablation (schema-level join, 20 runs, "
              "150 patterns):\n");
  for (auto strategy : {PatternJoinStrategy::kPartitionedHashJoin,
                        PatternJoinStrategy::kCrossProductSelect}) {
    std::vector<double> millis;
    for (int run = 0; run < 20; ++run) {
      PatternSet left = RandomSubset(pool, 150, &rng);
      PatternSet right = RandomSubset(pool, 150, &rng);
      WallTimer timer;
      PatternJoin(left, join_attr, right, join_attr, strategy);
      millis.push_back(timer.ElapsedMillis());
    }
    const char* label = strategy == PatternJoinStrategy::kPartitionedHashJoin
                            ? "partitioned hash join"
                            : "cross product + select";
    std::printf("  %-24s median %8.3f ms\n", label, Median(millis));
    JsonResultLine("fig6_join_ablation",
                   strategy == PatternJoinStrategy::kPartitionedHashJoin
                       ? "partitioned"
                       : "cross_select",
                   150, Median(millis));
  }
  return 0;
}
