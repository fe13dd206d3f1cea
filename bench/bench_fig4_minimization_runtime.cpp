// Figure 4: runtime comparison of pattern-set minimization techniques.
//
// Input as in the paper: random subsets of ~1M completeness patterns
// obtained as the cartesian product of two tables with 1000 patterns
// each (12 attributes total). Methods are <structure><approach> with
// structures A=list, B=hash table, C=path index, D=discrimination tree
// and approaches 1=all-at-once, 2=incremental, 3=sorted incremental.
//
// Paper's findings to reproduce: all-at-once is the fastest approach;
// discrimination trees (D1) beat hashing (B1) by ~25%; pairwise
// comparison (A1) and path indexing (C2) are inapplicable at scale
// (A1 needed >100 s for only 10k patterns on the paper's hardware).

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "pattern/algebra.h"
#include "pattern/minimize.h"

namespace {

using namespace pcdb;
using namespace pcdb::bench;

/// One side of the cross product: `n` random patterns over six
/// network-like dimension attributes.
PatternSet RandomSide(size_t n, Rng* rng) {
  const size_t domain_sizes[] = {6, 3, 7, 6, 13, 53};
  PatternSet out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Pattern::Cell> cells;
    // Real completeness patterns pin at least one attribute; an
    // all-wildcard pattern would collapse the whole pool under
    // minimization.
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

PatternSet Subset(const std::vector<Pattern>& pool, size_t n, Rng* rng) {
  PatternSet out;
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.Add(pool[rng->UniformUint64(pool.size())]);
  }
  return out;
}

/// One minimization method: an approach over an index structure.
struct Method {
  MinimizeApproach approach;
  PatternIndexKind kind;
};

/// Repetitions per method and size: enough for a median, min and max.
constexpr int kRepetitions = 3;

/// Times every method kRepetitions times on `input`, the methods
/// interleaved within each round so a drift in machine speed spreads
/// over all of them, and prints each method's median with min and max.
void RunSize(const PatternSet& input, const std::vector<Method>& methods) {
  std::vector<std::vector<double>> millis(methods.size());
  std::vector<size_t> output_size(methods.size(), 0);
  for (int round = 0; round < kRepetitions; ++round) {
    for (size_t m = 0; m < methods.size(); ++m) {
      MinimizeStats stats;
      Minimize(input, methods[m].approach, methods[m].kind, &stats);
      millis[m].push_back(stats.millis);
      output_size[m] = stats.output_size;
    }
  }
  for (size_t m = 0; m < methods.size(); ++m) {
    const std::string name =
        MinimizeMethodName(methods[m].kind, methods[m].approach);
    const double lo = *std::min_element(millis[m].begin(), millis[m].end());
    const double hi = *std::max_element(millis[m].begin(), millis[m].end());
    const double median = Median(millis[m]);
    std::printf("  %-3s %8zu patterns -> %7zu minimal   %9.1f ms "
                "(min %.1f, max %.1f)\n",
                name.c_str(), input.size(), output_size[m], median, lo, hi);
    char extra[96];
    std::snprintf(extra, sizeof(extra),
                  ",\"min_ms\":%.3f,\"max_ms\":%.3f,\"runs\":%d", lo, hi,
                  kRepetitions);
    JsonResultLine("fig4_minimize", name, input.size(), median, extra);
  }
}

}  // namespace

int main() {
  Banner("Figure 4", "runtime of pattern minimization techniques");

  Rng rng(2015);
  PatternSet left = RandomSide(1000, &rng);
  PatternSet right = RandomSide(1000, &rng);
  std::printf("building the 1000 x 1000 cross product pool...\n");
  PatternSet pool_set = PatternCross(left, right);
  const std::vector<Pattern>& pool = pool_set.patterns();
  std::printf("pool: %zu patterns of arity 12\n\n", pool.size());

  std::printf("scalable methods (paper: D1 fastest, ~25%% ahead of B1; "
              "sorted variants slower), median of %d interleaved runs:\n",
              kRepetitions);
  for (size_t n : {25000u, 50000u, 100000u, 200000u}) {
    PatternSet input = Subset(pool, n, &rng);
    RunSize(input,
            {{MinimizeApproach::kAllAtOnce,
              PatternIndexKind::kDiscriminationTree},  // D1
             {MinimizeApproach::kAllAtOnce,
              PatternIndexKind::kHashTable},  // B1
             {MinimizeApproach::kSortedIncremental,
              PatternIndexKind::kDiscriminationTree},  // D3
             {MinimizeApproach::kSortedIncremental,
              PatternIndexKind::kHashTable},  // B3
             {MinimizeApproach::kIncremental,
              PatternIndexKind::kDiscriminationTree}});  // D2
    std::printf("\n");
  }

  std::printf("inapplicable-at-scale baselines (small inputs only; paper: "
              "A1 >100 s at 10k):\n");
  for (size_t n : {2000u, 5000u, 10000u}) {
    PatternSet input = Subset(pool, n, &rng);
    RunSize(input, {{MinimizeApproach::kAllAtOnce,
                     PatternIndexKind::kLinearList},  // A1
                    {MinimizeApproach::kIncremental,
                     PatternIndexKind::kPathIndex}});  // C2
    std::printf("\n");
  }
  return 0;
}
