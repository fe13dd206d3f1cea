#include "pattern/minimize.h"

#include <algorithm>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace pcdb {

std::string MinimizeMethodName(PatternIndexKind kind,
                               MinimizeApproach approach) {
  return std::string(PatternIndexKindLetter(kind)) +
         std::to_string(static_cast<int>(approach));
}

namespace {

/// Deadline/memory poll cadence inside the per-pattern loops (the
/// pattern budget itself is checked on every insert — the index size IS
/// the governed quantity).
constexpr size_t kPatternsPerContextCheck = 64;

void TrackPeaks(const PatternIndex& index, MinimizeStats* stats) {
  if (stats == nullptr) return;
  stats->peak_index_size = std::max(stats->peak_index_size, index.size());
  stats->peak_memory_bytes =
      std::max(stats->peak_memory_bytes, index.ApproxMemoryBytes());
}

/// Checkpoint after an index insert; `iter` is the running loop counter.
Status CheckIndexBudgets(const PatternIndex& index, const ExecContext& ctx,
                         size_t iter) {
  PCDB_RETURN_NOT_OK(ctx.CheckPatterns(index.size()));
  if (iter % kPatternsPerContextCheck == 0) {
    PCDB_RETURN_NOT_OK(ctx.Check());
    PCDB_RETURN_NOT_OK(ctx.CheckMemory(index.ApproxMemoryBytes()));
  }
  return Status::OK();
}

Result<PatternSet> MinimizeAllAtOnce(const PatternSet& input,
                                     PatternIndexKind kind,
                                     const ExecContext& ctx,
                                     MinimizeStats* stats, size_t* probes) {
  if (input.empty()) return PatternSet();
  auto index = MakePatternIndex(kind, input[0].arity());
  // Indexes have set semantics, so loading also deduplicates.
  size_t iter = 0;
  for (const Pattern& p : input) {
    PCDB_FAILPOINT("minimize.pattern");
    index->Insert(p);
    TrackPeaks(*index, stats);
    if (!ctx.unbounded()) {
      PCDB_RETURN_NOT_OK(CheckIndexBudgets(*index, ctx, iter++));
    }
  }
  PatternSet out;
  iter = 0;
  for (const Pattern& p : index->Contents()) {
    PCDB_FAILPOINT("minimize.pattern");
    if (!ctx.unbounded() && iter++ % kPatternsPerContextCheck == 0) {
      PCDB_RETURN_NOT_OK(ctx.Check());
    }
    ++*probes;
    if (!index->HasSubsumer(p, /*strict=*/true)) out.Add(p);
  }
  return out;
}

Result<PatternSet> MinimizeIncremental(const PatternSet& input,
                                       PatternIndexKind kind,
                                       const ExecContext& ctx,
                                       MinimizeStats* stats,
                                       size_t* probes) {
  if (input.empty()) return PatternSet();
  auto index = MakePatternIndex(kind, input[0].arity());
  std::vector<Pattern> subsumed;
  size_t iter = 0;
  for (const Pattern& p : input) {
    PCDB_FAILPOINT("minimize.pattern");
    // Subsumption check: p contributes nothing if some maximal pattern
    // already subsumes it (or duplicates it).
    ++*probes;
    if (index->HasSubsumer(p, /*strict=*/false)) continue;
    // Supersumption retrieval: p displaces every stored pattern it
    // strictly subsumes.
    subsumed.clear();
    ++*probes;
    index->CollectSubsumed(p, /*strict=*/true, &subsumed);
    for (const Pattern& q : subsumed) index->Remove(q);
    index->Insert(p);
    TrackPeaks(*index, stats);
    if (!ctx.unbounded()) {
      PCDB_RETURN_NOT_OK(CheckIndexBudgets(*index, ctx, iter++));
    }
  }
  return PatternSet(index->Contents());
}

Result<PatternSet> MinimizeSortedIncremental(const PatternSet& input,
                                             PatternIndexKind kind,
                                             const ExecContext& ctx,
                                             MinimizeStats* stats,
                                             size_t* probes) {
  if (input.empty()) return PatternSet();
  std::vector<Pattern> sorted = input.patterns();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Pattern& a, const Pattern& b) {
                     return a.NumWildcards() > b.NumWildcards();
                   });
  auto index = MakePatternIndex(kind, input[0].arity());
  size_t iter = 0;
  for (const Pattern& p : sorted) {
    PCDB_FAILPOINT("minimize.pattern");
    // A strict subsumer has strictly more wildcards, so it was processed
    // earlier; equal patterns are caught by the non-strict check. No
    // supersumption retrieval is needed.
    ++*probes;
    if (index->HasSubsumer(p, /*strict=*/false)) continue;
    index->Insert(p);
    TrackPeaks(*index, stats);
    if (!ctx.unbounded()) {
      PCDB_RETURN_NOT_OK(CheckIndexBudgets(*index, ctx, iter++));
    }
  }
  return PatternSet(index->Contents());
}

/// Static span names keep the tracer allocation-free.
const char* MinimizeSpanName(MinimizeApproach approach) {
  switch (approach) {
    case MinimizeApproach::kAllAtOnce:
      return kSpanMinimizeAllAtOnce;
    case MinimizeApproach::kIncremental:
      return kSpanMinimizeIncremental;
    case MinimizeApproach::kSortedIncremental:
      return kSpanMinimizeSortedIncremental;
  }
  return kSpanMinimize;
}

}  // namespace

PatternSet Minimize(const PatternSet& input, MinimizeApproach approach,
                    PatternIndexKind kind, MinimizeStats* stats) {
  Result<PatternSet> out =
      Minimize(input, approach, kind, ExecContext::Unbounded(), stats);
  if (out.ok()) return std::move(out).ValueOrDie();
  // Only an injected fault can fail an unbounded minimization, and this
  // legacy signature has no error channel. Returning the input
  // unminimized is sound — the sets are semantically equivalent, just
  // redundant — and keeps fault injection from terminating callers.
  if (stats != nullptr) stats->output_size = input.size();
  return input;
}

Result<PatternSet> Minimize(const PatternSet& input, MinimizeApproach approach,
                            PatternIndexKind kind, const ExecContext& ctx,
                            MinimizeStats* stats) {
  WallTimer timer;
  PCDB_TRACE_SPAN(span, MinimizeSpanName(approach));
  Result<PatternSet> out = Status::Internal("unhandled minimize approach");
  // Probes are counted locally so the engine counter and the trace arg
  // see them even when the caller passed no stats. The exception guard
  // turns throw-action failpoints into kInternal; the span closes (RAII)
  // on every path.
  size_t probes = 0;
  try {
    switch (approach) {
      case MinimizeApproach::kAllAtOnce:
        out = MinimizeAllAtOnce(input, kind, ctx, stats, &probes);
        break;
      case MinimizeApproach::kIncremental:
        out = MinimizeIncremental(input, kind, ctx, stats, &probes);
        break;
      case MinimizeApproach::kSortedIncremental:
        out = MinimizeSortedIncremental(input, kind, ctx, stats, &probes);
        break;
    }
  } catch (const std::exception& e) {
    return Status::Internal(std::string("minimization failed: ") + e.what());
  }
  const EngineCounters& engine = EngineMetrics();
  engine.patterns_minimized->Increment(input.size());
  engine.subsumption_probes->Increment(probes);
  span.Arg("kind", static_cast<uint64_t>(kind));
  span.Arg("input", input.size());
  span.Arg("probes", probes);
  if (stats != nullptr) stats->probes += probes;
  if (out.ok() && stats != nullptr) {
    stats->output_size = out.ValueOrDie().size();
    stats->millis = timer.ElapsedMillis();
  }
  return out;
}

PatternSet Minimize(const PatternSet& input) {
  return Minimize(input, MinimizeApproach::kAllAtOnce,
                  PatternIndexKind::kDiscriminationTree);
}

bool IsMinimal(const PatternSet& set) {
  std::unordered_set<Pattern, PatternHash> seen;
  for (const Pattern& p : set) {
    if (!seen.insert(p).second) return false;  // duplicate
  }
  for (const Pattern& p : set) {
    for (const Pattern& q : set) {
      if (q.StrictlySubsumes(p)) return false;
    }
  }
  return true;
}

}  // namespace pcdb
