#ifndef PCDB_PATTERN_ALGEBRA_H_
#define PCDB_PATTERN_ALGEBRA_H_

#include <cstddef>
#include <vector>

#include "common/value.h"
#include "pattern/pattern.h"

namespace pcdb {

/// \brief The pattern algebra of §4.1: for every SPJ data operator, an
/// analogous operator on metadata relations (sets of completeness
/// patterns).
///
/// Given base patterns that are valid for the base tables, these
/// operators compute patterns valid for the operator outputs
/// (Proposition 5, soundness) and produce every satisfiable entailed
/// pattern up to subsumption (Proposition 6, completeness without
/// instance). The operators are purely schema-level: they look only at
/// patterns, never at data tuples (for the instance-aware extension see
/// promotion.h).
///
/// Attribute positions are 0-based column indices into the (implicit)
/// schema; the annotated evaluator (annotated_eval.h) resolves names to
/// indices. Outputs are deduplicated but not minimized; apply
/// Minimize() from minimize.h when a minimal set is needed.

/// σ̃_{A=d}(P) (§4.1.1): patterns with '*' at A survive unchanged;
/// patterns with constant d at A survive generalized to '*' at A (the
/// output of the data selection can only contain rows with A = d, so the
/// constant carries no information); all other patterns are irrelevant.
PatternSet PatternSelectConst(const PatternSet& input, size_t attr,
                              const Value& d);

/// π̃_{¬A}(P) (§4.1.2): only patterns with '*' at A survive (projected);
/// a constant at A means completeness holds only for a slice, which the
/// projection output cannot distinguish.
PatternSet PatternProjectOut(const PatternSet& input, size_t attr);

/// σ̃_{A=B}(P) (§4.1.3): keeps patterns with '*' at A or B together with
/// their A↔B swapped twins (both are needed to survive later
/// projections), and generalizes patterns with equal constants at A and
/// B by wildcarding either side.
PatternSet PatternSelectAttrEq(const PatternSet& input, size_t attr_a,
                               size_t attr_b);

/// Mirrors the kRearrange data operator: keeps exactly the cells at
/// `indices`, in that order (duplicates allowed). Positions omitted from
/// `indices` are projected away, so — as with π̃_{¬A} — only patterns
/// with '*' at every omitted position survive.
PatternSet PatternRearrange(const PatternSet& input,
                            const std::vector<size_t>& indices);

/// P × P' — the metadata cartesian product: all concatenations.
PatternSet PatternCross(const PatternSet& left, const PatternSet& right);

/// \brief Execution strategies for the pattern equijoin (§4.1.4).
enum class PatternJoinStrategy {
  /// Literal definition: σ̃_{A=B}(P × P'). Materializes |P|·|P'|
  /// intermediate patterns.
  kCrossProductSelect,
  /// The pushed form the paper notes: a union of four smaller joins
  /// ((*,*), (*,d), (d,*), (d,d)), computed with hash partitioning on
  /// the join attribute.
  kPartitionedHashJoin,
};

/// P ⋈̃_{A=B} P' (§4.1.4): the wildcard joins with any constant. `attr_a`
/// indexes into left patterns, `attr_b` into right patterns; the output
/// arity is left + right with right cells appended.
PatternSet PatternJoin(
    const PatternSet& left, size_t attr_a, const PatternSet& right,
    size_t attr_b,
    PatternJoinStrategy strategy = PatternJoinStrategy::kPartitionedHashJoin);

/// The pattern analogue of UNION ALL (an extension beyond the paper's
/// operator set): a pattern holds over R1 ⊎ R2 iff it holds over both
/// inputs — bag union only ever *adds* rows, so stability of the union's
/// p-slice requires stability on each side. The maximal such patterns
/// are the unifiers of unifiable pairs (p1, p2) ∈ P1 × P2.
PatternSet PatternUnion(const PatternSet& left, const PatternSet& right);

/// The pattern analogue of LIMIT (an extension beyond the paper's
/// operator set): a prefix of the answer is stable across completions
/// only when the whole answer is — unseen rows could otherwise enter or
/// displace the prefix. Patterns pass through iff the input set contains
/// the all-wildcard pattern (full completeness); otherwise nothing
/// survives. ORDER BY needs no operator: sorting is a bag bijection and
/// patterns pass through unchanged.
PatternSet PatternLimit(const PatternSet& input);

/// γ̃ (Appendix B): pattern analogue of group-by aggregation. Like the
/// projection onto the group-by attributes, a pattern survives iff it
/// has '*' at every position that is neither grouped nor merely
/// aggregated over; the output pattern is the group-by cells (in group
/// order) followed by one '*' per aggregate column. A completeness
/// pattern on an aggregate answer guarantees both completeness and
/// *correctness* of the covered groups: if all cities of Bulgaria are
/// present, then their count is the true count.
PatternSet PatternAggregate(const PatternSet& input,
                            const std::vector<size_t>& group_by,
                            size_t num_aggs);

}  // namespace pcdb

#endif  // PCDB_PATTERN_ALGEBRA_H_
