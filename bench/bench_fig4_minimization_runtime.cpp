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

void Run(const PatternSet& input, MinimizeApproach approach,
         PatternIndexKind kind) {
  MinimizeStats stats;
  Minimize(input, approach, kind, &stats);
  std::printf("  %-3s %8zu patterns -> %7zu minimal   %9.1f ms\n",
              MinimizeMethodName(kind, approach).c_str(), input.size(),
              stats.output_size, stats.millis);
  JsonResultLine("fig4_minimize", MinimizeMethodName(kind, approach),
                 input.size(), stats.millis);
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
              "sorted variants slower):\n");
  for (size_t n : {25000u, 50000u, 100000u, 200000u}) {
    PatternSet input = Subset(pool, n, &rng);
    Run(input, MinimizeApproach::kAllAtOnce,
        PatternIndexKind::kDiscriminationTree);               // D1
    Run(input, MinimizeApproach::kAllAtOnce,
        PatternIndexKind::kHashTable);                        // B1
    Run(input, MinimizeApproach::kSortedIncremental,
        PatternIndexKind::kDiscriminationTree);               // D3
    Run(input, MinimizeApproach::kSortedIncremental,
        PatternIndexKind::kHashTable);                        // B3
    Run(input, MinimizeApproach::kIncremental,
        PatternIndexKind::kDiscriminationTree);               // D2
    std::printf("\n");
  }

  std::printf("inapplicable-at-scale baselines (small inputs only; paper: "
              "A1 >100 s at 10k):\n");
  for (size_t n : {2000u, 5000u, 10000u}) {
    PatternSet input = Subset(pool, n, &rng);
    Run(input, MinimizeApproach::kAllAtOnce,
        PatternIndexKind::kLinearList);                       // A1
    Run(input, MinimizeApproach::kIncremental,
        PatternIndexKind::kPathIndex);                        // C2
    std::printf("\n");
  }
  return 0;
}
