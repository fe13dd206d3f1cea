#ifndef PCDB_PATTERN_MINIMIZE_H_
#define PCDB_PATTERN_MINIMIZE_H_

#include <string>

#include "common/exec_context.h"
#include "common/result.h"
#include "pattern/pattern.h"
#include "pattern/pattern_index.h"

namespace pcdb {

/// \brief Processing approaches for pattern set minimization (§4.4).
enum class MinimizeApproach {
  /// 1: load everything, then test each pattern for a strict subsumer.
  kAllAtOnce = 1,
  /// 2: maintain the maximal set while streaming patterns in; needs both
  /// subsumption checking and supersumption retrieval.
  kIncremental = 2,
  /// 3: sort by wildcard count (descending) first; later patterns can
  /// never subsume earlier ones, so supersumption retrieval is not
  /// needed.
  kSortedIncremental = 3,
};

/// The paper's method label, e.g. "D1" for all-at-once over a
/// discrimination tree.
std::string MinimizeMethodName(PatternIndexKind kind,
                               MinimizeApproach approach);

/// \brief Observability for the minimization experiments (Figs. 4, 5).
struct MinimizeStats {
  /// Patterns in the minimized output.
  size_t output_size = 0;
  /// Largest number of patterns held by the index at any point.
  size_t peak_index_size = 0;
  /// Largest ApproxMemoryBytes() of the index at any point.
  size_t peak_memory_bytes = 0;
  /// Index probe operations (HasSubsumer / CollectSubsumed calls),
  /// summed over the runs that share this stats object; also mirrored
  /// into the engine_subsumption_probes global counter.
  size_t probes = 0;
  /// Wall-clock time.
  double millis = 0;
};

/// \brief Removes all non-maximal (strictly subsumed) patterns and
/// duplicates from `input` (§3.2: a set is minimal iff all its elements
/// are maximal).
///
/// `approach` and `kind` select the §4.4 method; `stats` (optional)
/// receives runtime/space counters. The output order is unspecified.
PatternSet Minimize(const PatternSet& input, MinimizeApproach approach,
                    PatternIndexKind kind, MinimizeStats* stats = nullptr);

/// Governed minimization: `ctx` is polled inside the insert/probe loops,
/// so a cancelled token, expired deadline, or tripped pattern/memory
/// budget stops the run cooperatively (kCancelled / kTimeout /
/// kResourceExhausted). The "minimize.pattern" failpoint fires per
/// processed pattern. Note the pattern budget caps the *index* size: the
/// all-at-once approach loads every input pattern before dropping any,
/// so under a budget smaller than the input it always trips — governed
/// callers that want to finish within a budget use kSortedIncremental,
/// whose index only ever holds the running maximal set.
[[nodiscard]] Result<PatternSet> Minimize(const PatternSet& input,
                                          MinimizeApproach approach,
                                          PatternIndexKind kind,
                                          const ExecContext& ctx,
                                          MinimizeStats* stats = nullptr);

/// Minimizes with the best-performing method from the paper's
/// experiments (all-at-once over a discrimination tree, D1).
PatternSet Minimize(const PatternSet& input);

/// True if no element of `set` is strictly subsumed by another and there
/// are no duplicate patterns.
bool IsMinimal(const PatternSet& set);

}  // namespace pcdb

#endif  // PCDB_PATTERN_MINIMIZE_H_
