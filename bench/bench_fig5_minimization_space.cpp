// Figure 5: space comparison of minimization methods (hashing vs
// discrimination trees, all-at-once vs sorted incremental).
//
// Paper's findings to reproduce: sorted approaches (B3, D3) use by far
// the least space — they only ever hold the maximal patterns — while
// all-at-once methods hold the entire (deduplicated) input; the sorted
// methods' space can even *shrink* as the input grows, because larger
// random subsets of the pool contain more general patterns that subsume
// the rest.

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "pattern/algebra.h"
#include "pattern/minimize.h"

namespace {

using namespace pcdb;
using namespace pcdb::bench;

PatternSet RandomSide(size_t n, Rng* rng) {
  const size_t domain_sizes[] = {6, 3, 7, 6, 13, 53};
  PatternSet out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Pattern::Cell> cells;
    // At least one constant per pattern, as in bench_fig4 (an
    // all-wildcard pattern would collapse the pool).
    size_t forced = rng->UniformUint64(6);
    for (size_t a = 0; a < 6; ++a) {
      if (a != forced && rng->Bernoulli(0.5)) {
        cells.push_back(Pattern::Wildcard());
      } else {
        cells.push_back(Value(
            "v" + std::to_string(a) + "_" +
            std::to_string(rng->UniformUint64(domain_sizes[a]))));
      }
    }
    out.Add(Pattern(std::move(cells)));
  }
  return out;
}

}  // namespace

int main() {
  Banner("Figure 5", "peak index space of pattern minimization methods");

  Rng rng(2015);
  PatternSet left = RandomSide(1000, &rng);
  PatternSet right = RandomSide(1000, &rng);
  PatternSet pool_set = PatternCross(left, right);
  const std::vector<Pattern>& pool = pool_set.patterns();
  std::printf("pool: %zu patterns of arity 12\n\n", pool.size());

  struct Method {
    const char* label;
    MinimizeApproach approach;
    PatternIndexKind kind;
  };
  const Method methods[] = {
      {"B1", MinimizeApproach::kAllAtOnce, PatternIndexKind::kHashTable},
      {"D1", MinimizeApproach::kAllAtOnce,
       PatternIndexKind::kDiscriminationTree},
      {"B3", MinimizeApproach::kSortedIncremental,
       PatternIndexKind::kHashTable},
      {"D3", MinimizeApproach::kSortedIncremental,
       PatternIndexKind::kDiscriminationTree},
  };

  // Space is deterministic; the time each row also reports is the
  // median of kRepetitions runs, the methods interleaved within a round.
  constexpr int kRepetitions = 3;
  std::printf("%-9s", "input");
  for (const Method& m : methods) std::printf("  %12s", m.label);
  std::printf("   (peak index KiB; peak held patterns in parens)\n");
  for (size_t n : {25000u, 50000u, 100000u, 200000u, 300000u}) {
    PatternSet input;
    input.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      input.Add(pool[rng.UniformUint64(pool.size())]);
    }
    constexpr size_t kMethods = sizeof(methods) / sizeof(methods[0]);
    std::vector<double> millis[kMethods];
    MinimizeStats stats[kMethods];
    for (int round = 0; round < kRepetitions; ++round) {
      for (size_t m = 0; m < kMethods; ++m) {
        stats[m] = MinimizeStats{};
        Minimize(input, methods[m].approach, methods[m].kind, &stats[m]);
        millis[m].push_back(stats[m].millis);
      }
    }
    std::printf("%-9zu", n);
    for (size_t m = 0; m < kMethods; ++m) {
      std::printf("  %6zu(%4zu)", stats[m].peak_memory_bytes / 1024,
                  stats[m].peak_index_size);
      const auto [lo, hi] =
          std::minmax_element(millis[m].begin(), millis[m].end());
      char extra[160];
      std::snprintf(extra, sizeof(extra),
                    ",\"min_ms\":%.3f,\"max_ms\":%.3f,\"runs\":%d"
                    ",\"peak_bytes\":%zu,\"peak_patterns\":%zu",
                    *lo, *hi, kRepetitions, stats[m].peak_memory_bytes,
                    stats[m].peak_index_size);
      JsonResultLine("fig5_space", methods[m].label, n, Median(millis[m]),
                     extra);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape (paper): B3/D3 columns stay tiny and may\n"
              "shrink at the largest inputs; B1/D1 grow linearly with the\n"
              "deduplicated input size.\n");
  return 0;
}
