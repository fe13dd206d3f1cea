#ifndef PCDB_BENCH_BENCH_UTIL_H_
#define PCDB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "pattern/pattern.h"
#include "workloads/drop_simulation.h"
#include "workloads/network_elements.h"

namespace pcdb {
namespace bench {

/// Emits one machine-readable result line for the BENCH_*.json
/// trajectory tracking:
///   {"bench":"fig4_minimize","method":"D1","n":50000,"median_ms":12.3}
/// `extra` may append further fields and must then start with a comma,
/// e.g. ",\"peak_bytes\":1024".
inline void JsonResultLine(const std::string& bench, const std::string& method,
                           size_t n, double median_ms,
                           const std::string& extra = "") {
  std::printf(
      "{\"bench\":\"%s\",\"method\":\"%s\",\"n\":%zu,"
      "\"median_ms\":%.3f%s}\n",
      bench.c_str(), method.c_str(), n, median_ms, extra.c_str());
}

/// Prints the standard experiment banner.
inline void Banner(const std::string& id, const std::string& title) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================="
              "=================\n");
}

/// q-quantile (0 ≤ q ≤ 1) of an unsorted sample; empty → 0.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double idx = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Produces a realistic base pattern set for the network-element table
/// by running the §4.3 drop simulation for `drops` random record drops
/// (the paper's "augmented with completeness patterns using the method
/// presented in Section 4.3") and then sampling `target_patterns` of the
/// resulting patterns. Returns patterns over the six dimension
/// attributes.
inline PatternSet NetworkPatterns(const NetworkElementsData& data,
                                  size_t target_patterns, uint64_t seed,
                                  size_t drops = 300) {
  DropSimulator sim(data.table, data.dimension_columns,
                    data.dimension_domains);
  Rng rng(seed);
  size_t remaining = drops;
  size_t budget = data.table.num_rows();
  while (remaining > 0 && budget-- > 0) {
    size_t row = rng.UniformUint64(data.table.num_rows());
    if (sim.IsDropped(row)) continue;
    sim.DropRow(row);
    --remaining;
  }
  const PatternSet& all = sim.patterns();
  if (all.size() <= target_patterns) return all;
  std::vector<size_t> indices(all.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng.Shuffle(&indices);
  PatternSet out;
  out.Reserve(target_patterns);
  for (size_t i = 0; i < target_patterns; ++i) out.Add(all[indices[i]]);
  return out;
}

/// The dimension-attribute projection of the network table (the "fact
/// table" of the §5.2 experiments: its schema matches the pattern
/// arity).
inline Table DimensionProjection(const NetworkElementsData& data,
                                 size_t max_rows = 0) {
  std::vector<Column> cols;
  for (size_t c : data.dimension_columns) {
    cols.push_back(data.table.schema().column(c));
  }
  Table out((Schema(std::move(cols))));
  size_t n = max_rows == 0 ? data.table.num_rows()
                           : std::min(max_rows, data.table.num_rows());
  out.Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    out.AppendUnchecked(DimensionCombo(data, r));
  }
  return out;
}

/// A unary "dimension table" holding a random subset of the domain
/// values realized in `column` of `fact` (the complete lookup table the
/// fact table is joined with in Table 8).
inline Table RandomDimensionTable(const Table& fact, size_t column,
                                  double keep_probability, Rng* rng) {
  Table out(Schema({{"value", fact.schema().column(column).type}}));
  for (const Value& v : fact.DistinctValues(column)) {
    if (rng->Bernoulli(keep_probability)) {
      out.AppendUnchecked(Tuple{v});
    }
  }
  if (out.num_rows() == 0) {
    out.AppendUnchecked(Tuple{fact.DistinctValues(column)[0]});
  }
  return out;
}

}  // namespace bench
}  // namespace pcdb

#endif  // PCDB_BENCH_BENCH_UTIL_H_
