#include "pattern/annotated_eval.h"

#include "common/failpoint.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "pattern/algebra.h"
#include "pattern/summary.h"
#include "pattern/zombie.h"
#include "relational/evaluator.h"

namespace pcdb {
namespace {

/// Appends `extra` to `base` without duplicating patterns.
void UnionInto(PatternSet* base, const PatternSet& extra) {
  for (const Pattern& p : extra) base->AddUnique(p);
}

/// Static span names for the per-node pattern step (the metadata half of
/// each operator); the data half is traced inside ApplyRootOperator.
const char* PatternSpanName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kScan: return kSpanPatternScan;
    case ExprKind::kSelectConst: return kSpanPatternSelectConst;
    case ExprKind::kSelectAttrEq: return kSpanPatternSelectAttrEq;
    case ExprKind::kProjectOut: return kSpanPatternProjectOut;
    case ExprKind::kRearrange: return kSpanPatternRearrange;
    case ExprKind::kJoin: return kSpanPatternJoin;
    case ExprKind::kAggregate: return kSpanPatternAggregate;
    case ExprKind::kSort: return kSpanPatternSort;
    case ExprKind::kLimit: return kSpanPatternLimit;
    case ExprKind::kUnion: return kSpanPatternUnion;
  }
  return kSpanPatternOperator;
}

/// Short operator labels for QueryProfile rows.
const char* ProfileOpName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kScan: return "scan";
    case ExprKind::kSelectConst: return "select_const";
    case ExprKind::kSelectAttrEq: return "select_attr_eq";
    case ExprKind::kProjectOut: return "project_out";
    case ExprKind::kRearrange: return "rearrange";
    case ExprKind::kJoin: return "join";
    case ExprKind::kAggregate: return "aggregate";
    case ExprKind::kSort: return "sort";
    case ExprKind::kLimit: return "limit";
    case ExprKind::kUnion: return "union";
  }
  return "operator";
}

/// Per-operator minimization with graceful degradation. A tripped
/// pattern budget (kResourceExhausted) falls back to a sound coarser
/// summary of the un-minimized set and flips `*degraded`; every other
/// failure (kTimeout, kCancelled, injected faults) propagates.
///
/// Under a pattern budget the sorted-incremental approach replaces the
/// default all-at-once one: its index only ever holds the running
/// maximal set, so it finishes within the budget whenever the exact
/// minimal set fits — all-at-once loads every input pattern first and
/// would trip spuriously.
Result<PatternSet> MinimizeWithDegradation(const PatternSet& patterns,
                                           const ExecContext& ctx,
                                           bool* degraded,
                                           AnnotatedEvalInfo* info,
                                           MinimizeStats* min_stats) {
  const MinimizeApproach approach =
      ctx.has_pattern_budget() ? MinimizeApproach::kSortedIncremental
                               : MinimizeApproach::kAllAtOnce;
  Result<PatternSet> out =
      Minimize(patterns, approach, PatternIndexKind::kDiscriminationTree, ctx,
               min_stats);
  if (out.ok() || out.status().code() != StatusCode::kResourceExhausted ||
      !ctx.has_pattern_budget()) {
    return out;
  }
  *degraded = true;
  if (info != nullptr) ++info->degradations;
  EngineMetrics().degraded_to_summary->Increment();
  return SummarizePatterns(patterns, ctx.pattern_budget());
}

/// The one evaluation recursion behind both entry points. Each plan node
/// runs the pattern step (ComputePatterns, then per-operator
/// minimization) and then the data step. EvaluateAnnotated runs it with
/// data. ComputeQueryPatterns runs it without: the pattern algebra is
/// schema-level (§4.1), so a node needs only its output schema, which
/// it carries in a table with no rows, and the data step shrinks to
/// computing that schema.
class AnnotatedEvaluator {
 public:
  /// `with_data` false selects the schema-only mode. If
  /// `total_intermediate_patterns` is given, every node adds the size
  /// of its pattern set before minimization to it.
  AnnotatedEvaluator(const AnnotatedDatabase& adb,
                     const AnnotatedEvalOptions& options,
                     const ExecContext& ctx, AnnotatedEvalInfo* info,
                     bool with_data = true,
                     size_t* total_intermediate_patterns = nullptr)
      : adb_(adb),
        options_(options),
        ctx_(ctx),
        info_(info),
        with_data_(with_data),
        total_intermediate_patterns_(total_intermediate_patterns) {}

  Result<AnnotatedTable> Eval(const Expr& expr, int depth = 0) {
    PCDB_FAILPOINT("annotated.operator");
    PCDB_RETURN_NOT_OK(ctx_.Check());
    AnnotatedTable left;
    AnnotatedTable right;
    if (expr.left() != nullptr) {
      PCDB_ASSIGN_OR_RETURN(left, Eval(*expr.left(), depth + 1));
    }
    if (expr.right() != nullptr) {
      PCDB_ASSIGN_OR_RETURN(right, Eval(*expr.right(), depth + 1));
    }

    const bool profiling = options_.collect_profile && info_ != nullptr;
    OperatorProfile op;
    if (profiling) {
      op.op = ProfileOpName(expr.kind());
      op.depth = depth;
      op.input_rows = left.data.num_rows() + right.data.num_rows();
      op.patterns_in = left.patterns.size() + right.patterns.size();
    }
    const size_t zombies_before =
        (profiling ? info_->zombies_added : size_t{0});

    // Metadata first: the pattern operators (promotion, zombies) read
    // the children's data, which the data step consumes afterwards.
    WallTimer timer;
    PatternSet patterns;
    {
      PCDB_TRACE_SPAN(span, PatternSpanName(expr.kind()));
      PCDB_ASSIGN_OR_RETURN(patterns, ComputePatterns(expr, left, right));
      if (total_intermediate_patterns_ != nullptr) {
        *total_intermediate_patterns_ += patterns.size();
      }
      if (info_ != nullptr) {
        info_->max_intermediate_patterns =
            std::max(info_->max_intermediate_patterns, patterns.size());
      }
      if (profiling) op.patterns_pre_min = patterns.size();
      if (options_.minimize_each_step) {
        MinimizeStats min_stats;
        PCDB_ASSIGN_OR_RETURN(
            patterns,
            MinimizeWithDegradation(patterns, ctx_, &degraded_, info_,
                                    profiling ? &min_stats : nullptr));
        if (profiling) op.probes = min_stats.probes;
      } else if (profiling) {
        op.probes = 0;
      }
      span.Arg("patterns", patterns.size());
    }
    const double pattern_millis = timer.ElapsedMillis();
    if (info_ != nullptr) info_->pattern_millis += pattern_millis;

    timer.Reset();
    PCDB_ASSIGN_OR_RETURN(Table data, DataStep(expr, left, right));
    const double data_millis = timer.ElapsedMillis();
    if (info_ != nullptr) info_->data_millis += data_millis;

    if (profiling) {
      op.output_rows = data.num_rows();
      op.patterns_out = patterns.size();
      op.zombies_added = info_->zombies_added - zombies_before;
      op.pattern_micros = pattern_millis * 1000.0;
      op.data_micros = data_millis * 1000.0;
      info_->profile.operators.push_back(std::move(op));
    }
    return AnnotatedTable{std::move(data), std::move(patterns), degraded_};
  }

  /// Eval plus the root-level budget guarantee: whatever path the
  /// patterns took (including minimize_each_step = false, which never
  /// runs the governed minimizer), the returned set respects the
  /// pattern budget, degrading at the root if it still must.
  Result<AnnotatedTable> EvalRoot(const Expr& expr) {
    PCDB_ASSIGN_OR_RETURN(AnnotatedTable out, Eval(expr));
    if (ctx_.has_pattern_budget() &&
        out.patterns.size() > ctx_.pattern_budget()) {
      out.patterns = SummarizePatterns(out.patterns, ctx_.pattern_budget());
      out.degraded = true;
      if (info_ != nullptr) ++info_->degradations;
      EngineMetrics().degraded_to_summary->Increment();
    }
    return out;
  }

 private:
  /// The data half of a node: the operator applied to the children's
  /// rows, or, without data, an empty table with the operator's output
  /// schema (a scan never copies the base table's rows).
  Result<Table> DataStep(const Expr& expr, AnnotatedTable& left,
                         AnnotatedTable& right) {
    if (!with_data_) {
      PCDB_ASSIGN_OR_RETURN(
          Schema schema,
          expr.RootOutputSchema(adb_.database(), left.data.schema(),
                                right.data.schema()));
      return Table(std::move(schema));
    }
    return ApplyRootOperator(expr, adb_.database(), std::move(left.data),
                             std::move(right.data), ctx_);
  }

  Result<PatternSet> ComputePatterns(const Expr& expr,
                                     const AnnotatedTable& left,
                                     const AnnotatedTable& right) {
    switch (expr.kind()) {
      case ExprKind::kScan:
        return adb_.patterns(expr.table_name());
      case ExprKind::kSelectConst: {
        const Schema& in = left.data.schema();
        PCDB_ASSIGN_OR_RETURN(size_t idx, in.Resolve(expr.attr()));
        PatternSet out =
            PatternSelectConst(left.patterns, idx, expr.constant());
        if (options_.zombies) {
          const std::vector<Value>* domain =
              adb_.domains().Lookup(in.column(idx).name);
          if (domain != nullptr) {
            PatternSet zombies = ZombiesForSelectConst(
                in.arity(), idx, expr.constant(), *domain);
            if (info_ != nullptr) info_->zombies_added += zombies.size();
            UnionInto(&out, zombies);
          }
        }
        return out;
      }
      case ExprKind::kSelectAttrEq: {
        const Schema& in = left.data.schema();
        PCDB_ASSIGN_OR_RETURN(size_t a, in.Resolve(expr.attr()));
        PCDB_ASSIGN_OR_RETURN(size_t b, in.Resolve(expr.attr2()));
        return PatternSelectAttrEq(left.patterns, a, b);
      }
      case ExprKind::kProjectOut: {
        PCDB_ASSIGN_OR_RETURN(size_t idx,
                              left.data.schema().Resolve(expr.attr()));
        return PatternProjectOut(left.patterns, idx);
      }
      case ExprKind::kRearrange: {
        std::vector<size_t> indices;
        indices.reserve(expr.attrs().size());
        for (const std::string& a : expr.attrs()) {
          PCDB_ASSIGN_OR_RETURN(size_t idx,
                                left.data.schema().Resolve(a));
          indices.push_back(idx);
        }
        return PatternRearrange(left.patterns, indices);
      }
      case ExprKind::kJoin: {
        if (expr.attr().empty()) {
          return PatternCross(left.patterns, right.patterns);
        }
        PCDB_ASSIGN_OR_RETURN(size_t a,
                              left.data.schema().Resolve(expr.attr()));
        PCDB_ASSIGN_OR_RETURN(size_t b,
                              right.data.schema().Resolve(expr.attr2()));
        PatternSet out;
        if (options_.instance_aware) {
          PromotionStats stats;
          out = InstanceAwarePatternJoin(
              left.patterns, a, left.data, right.patterns, b, right.data,
              options_.promotion, &stats, options_.join_strategy);
          if (info_ != nullptr) info_->promotion.MergeFrom(stats);
        } else {
          out = PatternJoin(left.patterns, a, right.patterns, b,
                            options_.join_strategy);
        }
        if (options_.zombies) {
          const std::vector<Value>* left_domain =
              adb_.domains().Lookup(left.data.schema().column(a).name);
          if (left_domain != nullptr) {
            PatternSet zombies = ZombiesForJoin(
                left.patterns, a, left.data, *left_domain,
                right.data.schema().arity(), /*side_is_left=*/true);
            if (info_ != nullptr) info_->zombies_added += zombies.size();
            UnionInto(&out, zombies);
          }
          const std::vector<Value>* right_domain =
              adb_.domains().Lookup(right.data.schema().column(b).name);
          if (right_domain != nullptr) {
            PatternSet zombies = ZombiesForJoin(
                right.patterns, b, right.data, *right_domain,
                left.data.schema().arity(), /*side_is_left=*/false);
            if (info_ != nullptr) info_->zombies_added += zombies.size();
            UnionInto(&out, zombies);
          }
        }
        return out;
      }
      case ExprKind::kAggregate: {
        std::vector<size_t> group_idx;
        group_idx.reserve(expr.attrs().size());
        for (const std::string& g : expr.attrs()) {
          PCDB_ASSIGN_OR_RETURN(size_t idx,
                                left.data.schema().Resolve(g));
          group_idx.push_back(idx);
        }
        return PatternAggregate(left.patterns, group_idx,
                                expr.aggs().size());
      }
      case ExprKind::kSort:
        // Sorting is a bag bijection; the metadata is order-free.
        return left.patterns;
      case ExprKind::kLimit:
        return PatternLimit(left.patterns);
      case ExprKind::kUnion:
        return PatternUnion(left.patterns, right.patterns);
    }
    return Status::Internal("unhandled expression kind");
  }

  const AnnotatedDatabase& adb_;
  const AnnotatedEvalOptions& options_;
  const ExecContext& ctx_;
  AnnotatedEvalInfo* info_;
  const bool with_data_;
  size_t* total_intermediate_patterns_;
  /// Latched once any intermediate set degrades to a summary.
  bool degraded_ = false;
};

}  // namespace

Result<AnnotatedTable> EvaluateAnnotated(const Expr& expr,
                                         const AnnotatedDatabase& adb,
                                         const AnnotatedEvalOptions& options,
                                         AnnotatedEvalInfo* info) {
  return EvaluateAnnotated(expr, adb, options, ExecContext::Unbounded(), info);
}

Result<AnnotatedTable> EvaluateAnnotated(const Expr& expr,
                                         const AnnotatedDatabase& adb,
                                         const AnnotatedEvalOptions& options,
                                         const ExecContext& ctx,
                                         AnnotatedEvalInfo* info) {
  // The exception guard catches throw-action failpoints, so every
  // injected fault surfaces as a Status from this entry point.
  TraceContextScope trace_scope(ctx.trace());
  PCDB_TRACE_SPAN(span, kSpanEvaluateAnnotated);
  try {
    AnnotatedEvaluator evaluator(adb, options, ctx, info);
    Result<AnnotatedTable> out = evaluator.EvalRoot(expr);
    if (out.ok()) span.Arg("patterns", out->patterns.size());
    return out;
  } catch (const std::exception& e) {
    return Status::Internal(std::string("annotated evaluation failed: ") +
                            e.what());
  }
}

Result<PatternSet> ComputeQueryPatterns(const Expr& expr,
                                        const AnnotatedDatabase& adb,
                                        const AnnotatedEvalOptions& options,
                                        size_t* total_intermediate_patterns) {
  return ComputeQueryPatterns(expr, adb, options, ExecContext::Unbounded(),
                              /*degraded=*/nullptr,
                              total_intermediate_patterns);
}

Result<PatternSet> ComputeQueryPatterns(const Expr& expr,
                                        const AnnotatedDatabase& adb,
                                        const AnnotatedEvalOptions& options,
                                        const ExecContext& ctx, bool* degraded,
                                        size_t* total_intermediate_patterns) {
  if (options.instance_aware || options.zombies) {
    return Status::InvalidArgument(
        "ComputeQueryPatterns is schema-level only: the instance-aware "
        "algebra and zombie generation read the data; use "
        "EvaluateAnnotated instead");
  }
  if (total_intermediate_patterns != nullptr) {
    *total_intermediate_patterns = 0;
  }
  if (degraded != nullptr) *degraded = false;
  TraceContextScope trace_scope(ctx.trace());
  PCDB_TRACE_SPAN(span, kSpanComputeQueryPatterns);
  try {
    AnnotatedEvaluator evaluator(adb, options, ctx, /*info=*/nullptr,
                                 /*with_data=*/false,
                                 total_intermediate_patterns);
    PCDB_ASSIGN_OR_RETURN(AnnotatedTable out, evaluator.EvalRoot(expr));
    if (degraded != nullptr) *degraded = out.degraded;
    return std::move(out.patterns);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("pattern computation failed: ") +
                            e.what());
  }
}

}  // namespace pcdb
