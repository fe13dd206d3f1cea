#ifndef PCDB_RELATIONAL_EVALUATOR_H_
#define PCDB_RELATIONAL_EVALUATOR_H_

#include <cstddef>

#include "common/exec_context.h"
#include "common/result.h"
#include "relational/database.h"
#include "relational/expr.h"
#include "relational/table.h"

namespace pcdb {

/// \brief Evaluates a relational algebra expression over a database
/// instance (Q(D) in §3.1), under bag semantics.
///
/// Joins use hash joins on the equality attribute; aggregation uses hash
/// grouping. Fails with a Status on unknown tables, unresolvable or
/// ambiguous attributes, and type mismatches.
[[nodiscard]] Result<Table> Evaluate(const Expr& expr, const Database& db);

/// Governed evaluation: `ctx` is polled at every operator boundary and
/// inside join probe loops, so a cancelled token, an expired deadline,
/// or a tripped row budget stops the plan cooperatively (kCancelled /
/// kTimeout / kResourceExhausted) instead of running to completion.
/// Injected faults (common/failpoint.h) surface as error Statuses —
/// this entry point never terminates the process.
[[nodiscard]] Result<Table> Evaluate(const Expr& expr, const Database& db,
                                     const ExecContext& ctx);

[[nodiscard]] inline Result<Table> Evaluate(const ExprPtr& expr, const Database& db) {
  return Evaluate(*expr, db);
}

[[nodiscard]] inline Result<Table> Evaluate(const ExprPtr& expr,
                                            const Database& db,
                                            const ExecContext& ctx) {
  return Evaluate(*expr, db, ctx);
}

/// Applies only the root operator of `expr` to already-evaluated child
/// results (`left`/`right` are ignored where the operator takes fewer
/// inputs; kScan takes none). Used by the annotated evaluator
/// (pattern/annotated_eval.h) to run the data plan and the metadata plan
/// in lockstep over shared intermediates. Fires the "eval.operator"
/// failpoint, polls `ctx` on entry, and checks the operator's output
/// row count against the row budget.
[[nodiscard]] Result<Table> ApplyRootOperator(const Expr& expr,
                                              const Database& db, Table left,
                                              Table right,
                                              const ExecContext& ctx);

namespace internal {

/// Capacity actually reserved for a cartesian product of `lhs_rows` ×
/// `rhs_rows` tuples: the true product, clamped so that a huge (or
/// size_t-overflowing) row-count product cannot request absurd capacity
/// up front. Rows beyond the clamp grow the vector normally.
size_t CartesianReserve(size_t lhs_rows, size_t rhs_rows);

}  // namespace internal

}  // namespace pcdb

#endif  // PCDB_RELATIONAL_EVALUATOR_H_
