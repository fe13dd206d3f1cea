#ifndef PCDB_PATTERN_ANNOTATED_EVAL_H_
#define PCDB_PATTERN_ANNOTATED_EVAL_H_

#include "common/exec_context.h"
#include "obs/profile.h"
#include "pattern/annotated.h"
#include "pattern/minimize.h"
#include "pattern/promotion.h"
#include "relational/expr.h"

namespace pcdb {

/// \brief Configuration for annotated query evaluation.
struct AnnotatedEvalOptions {
  /// Use the instance-aware algebra (§5): joins run pattern promotion
  /// against the join inputs, producing more general patterns at
  /// potentially exponential cost (mitigated by PromotionOptions).
  bool instance_aware = false;
  /// Generate zombie patterns (Appendix E) at constant selections and
  /// joins. Requires attribute domains in the database's DomainRegistry;
  /// attributes without a registered domain are skipped.
  bool zombies = false;
  /// Minimize the pattern set after every operator. Keeps intermediate
  /// sets small; promotion and zombies in particular produce many
  /// subsumed patterns (Tables 9, 10).
  bool minimize_each_step = true;
  PatternJoinStrategy join_strategy =
      PatternJoinStrategy::kPartitionedHashJoin;
  PromotionOptions promotion;
  /// Collect a per-operator QueryProfile (EXPLAIN ANALYZE) into
  /// `info->profile`. Requires a non-null AnnotatedEvalInfo; adds one
  /// OperatorProfile per plan node in post-order. Off by default — the
  /// per-node bookkeeping (row/pattern counts, per-node timers) is cheap
  /// but not free.
  bool collect_profile = false;
};

/// \brief Counters and timings from one annotated evaluation.
struct AnnotatedEvalInfo {
  /// Time spent computing the data result (query evaluation).
  double data_millis = 0;
  /// Time spent computing the metadata result (completeness
  /// calculation) — the paper's headline comparison (Table 7).
  double pattern_millis = 0;
  /// Largest intermediate pattern set (before minimization).
  size_t max_intermediate_patterns = 0;
  /// Zombie patterns generated (before minimization).
  size_t zombies_added = 0;
  /// Times a tripped pattern budget degraded an intermediate set to a
  /// summary (SummarizePatterns) instead of failing the evaluation.
  size_t degradations = 0;
  PromotionStats promotion;
  /// Per-operator profile, populated only when
  /// AnnotatedEvalOptions::collect_profile is set. Operators appear in
  /// post-order; per-operator micros are disjoint, so their sum is at
  /// most the caller-measured wall time.
  QueryProfile profile;
};

/// \brief Evaluates `expr` over a partially complete database, computing
/// both the query answer and the completeness patterns entailed for it.
///
/// This is the paper's end-to-end pipeline: the metadata is computed by
/// running, for each algebra operator applied to the data, the analogous
/// pattern operator on the metadata (§4.1), optionally strengthened by
/// instance-aware promotion (§5) and zombie patterns (Appendix E).
/// The returned patterns are sound: every completion of the database
/// consistent with the base patterns agrees with the answer on every
/// returned pattern's slice (Proposition 5).
[[nodiscard]] Result<AnnotatedTable> EvaluateAnnotated(
    const Expr& expr, const AnnotatedDatabase& adb,
    const AnnotatedEvalOptions& options = {},
    AnnotatedEvalInfo* info = nullptr);

/// Governed end-to-end pipeline: `ctx` is polled at every plan node
/// (the "annotated.operator" failpoint fires there too) and inside the
/// data operators and minimizations underneath. Deadline, cancellation,
/// and row-budget violations return kTimeout / kCancelled /
/// kResourceExhausted; a tripped *pattern* budget degrades gracefully
/// instead — the offending intermediate set is replaced by a sound
/// coarser summary (SummarizePatterns) and the result is returned with
/// `degraded = true`. The returned patterns stay sound either way.
[[nodiscard]] Result<AnnotatedTable> EvaluateAnnotated(const Expr& expr,
                                         const AnnotatedDatabase& adb,
                                         const AnnotatedEvalOptions& options,
                                         const ExecContext& ctx,
                                         AnnotatedEvalInfo* info = nullptr);

[[nodiscard]] inline Result<AnnotatedTable> EvaluateAnnotated(
    const ExprPtr& expr, const AnnotatedDatabase& adb,
    const AnnotatedEvalOptions& options = {},
    AnnotatedEvalInfo* info = nullptr) {
  return EvaluateAnnotated(*expr, adb, options, info);
}

[[nodiscard]] inline Result<AnnotatedTable> EvaluateAnnotated(
    const ExprPtr& expr, const AnnotatedDatabase& adb,
    const AnnotatedEvalOptions& options, const ExecContext& ctx,
    AnnotatedEvalInfo* info = nullptr) {
  return EvaluateAnnotated(*expr, adb, options, ctx, info);
}

/// \brief Computes the completeness patterns of a query answer *without
/// touching the data* — the pattern algebra is purely schema-level
/// (§4.1), so the reasoner can run outside the DBMS (§6, "Placement of
/// Reasoner").
///
/// This is EvaluateAnnotated's recursion run without data: every node
/// carries only its output schema, and the same pattern step yields the
/// same patterns. Only the schema-level algebra is available here: the
/// instance-aware extension (§5) and zombie generation read tuples, so
/// options.instance_aware and options.zombies must be false
/// (InvalidArgument otherwise). If `total_intermediate_patterns` is
/// given, it receives the summed sizes of all intermediate pattern sets
/// before minimization — the cost measure the metadata plan optimizer
/// minimizes.
[[nodiscard]] Result<PatternSet> ComputeQueryPatterns(
    const Expr& expr, const AnnotatedDatabase& adb,
    const AnnotatedEvalOptions& options = {},
    size_t* total_intermediate_patterns = nullptr);

/// Governed schema-level reasoning with graceful degradation: same
/// contract as the governed EvaluateAnnotated, with `*degraded` (if
/// non-null) set to true when a tripped pattern budget forced a
/// summary. The result then holds at most ctx.pattern_budget() patterns,
/// each still sound for the query.
[[nodiscard]] Result<PatternSet> ComputeQueryPatterns(
    const Expr& expr, const AnnotatedDatabase& adb,
    const AnnotatedEvalOptions& options, const ExecContext& ctx,
    bool* degraded, size_t* total_intermediate_patterns = nullptr);

[[nodiscard]] inline Result<PatternSet> ComputeQueryPatterns(
    const ExprPtr& expr, const AnnotatedDatabase& adb,
    const AnnotatedEvalOptions& options = {},
    size_t* total_intermediate_patterns = nullptr) {
  return ComputeQueryPatterns(*expr, adb, options,
                              total_intermediate_patterns);
}

[[nodiscard]] inline Result<PatternSet> ComputeQueryPatterns(
    const ExprPtr& expr, const AnnotatedDatabase& adb,
    const AnnotatedEvalOptions& options, const ExecContext& ctx,
    bool* degraded, size_t* total_intermediate_patterns = nullptr) {
  return ComputeQueryPatterns(*expr, adb, options, ctx, degraded,
                              total_intermediate_patterns);
}

}  // namespace pcdb

#endif  // PCDB_PATTERN_ANNOTATED_EVAL_H_
