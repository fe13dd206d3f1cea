#ifndef PCDB_RELATIONAL_EXPR_H_
#define PCDB_RELATIONAL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "relational/schema.h"

namespace pcdb {

/// \brief Kinds of relational algebra operators (the SPJ fragment of §4.1
/// plus the derived operators needed for single-block SQL).
enum class ExprKind {
  /// Leaf: reads a base table, optionally under an alias that qualifies
  /// its column names.
  kScan,
  /// σ_{A=d}: selection by constant.
  kSelectConst,
  /// σ_{A=B}: selection by attribute equality.
  kSelectAttrEq,
  /// π_{¬A}: atomic projection that removes exactly one attribute (the
  /// paper's primitive; classical projection is derived from it).
  kProjectOut,
  /// Permutes / duplicates columns (derived; needed for SQL SELECT lists
  /// that reorder attributes). Row-bijective, so patterns map through it
  /// cell-for-cell.
  kRearrange,
  /// Equijoin on one attribute pair, or cartesian product when no
  /// condition is given. Multi-condition joins are expressed as a join
  /// plus kSelectAttrEq operators on top.
  kJoin,
  /// Group-by with aggregate functions (Appendix B extension).
  kAggregate,
  /// ORDER BY: stable sort on a list of attributes. A bag bijection —
  /// patterns pass through unchanged.
  kSort,
  /// LIMIT k: the first k rows of the input. Completeness survives a
  /// limit only when the *entire* input is complete (otherwise unseen
  /// rows could enter or displace the prefix), so the pattern operator
  /// passes patterns through iff one of them is all-wildcards.
  kLimit,
  /// UNION ALL: bag union of two inputs with positionally compatible
  /// schemas. A pattern holds over the union iff it holds over both
  /// inputs, so the pattern operator unifies pattern pairs.
  kUnion,
};

/// \brief Aggregate functions supported by kAggregate (Appendix B).
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncToString(AggFunc func);

/// \brief One aggregate output column: FUNC(attr) AS output_name.
/// For COUNT(*), `attr` is empty.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  std::string attr;
  std::string output_name;
};

class Expr;
/// Expression nodes are immutable and shared; plans are DAG-friendly.
using ExprPtr = std::shared_ptr<const Expr>;

/// \brief An immutable relational algebra expression node.
///
/// Construct via the factory functions below (Scan, SelectConst, ...).
/// The same tree drives both the data evaluator (evaluator.h) and the
/// pattern algebra (pattern/algebra.h), which is the paper's central
/// design: metadata is computed by an operator-for-operator analogue of
/// the query plan.
class Expr {
 public:
  ExprKind kind() const { return kind_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  const std::string& table_name() const { return table_name_; }
  const std::string& alias() const { return alias_; }
  const std::string& attr() const { return attr_; }
  const std::string& attr2() const { return attr2_; }
  const Value& constant() const { return constant_; }
  const std::vector<std::string>& attrs() const { return attrs_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }
  const std::vector<bool>& sort_descending() const { return sort_desc_; }
  size_t limit() const { return limit_; }

  /// Computes the output schema of this expression against `db`,
  /// resolving all attribute references; fails on unknown tables or
  /// unresolvable/ambiguous attributes.
  [[nodiscard]] Result<Schema> OutputSchema(const Database& db) const;

  /// The output schema of this node alone, given its children's output
  /// schemas (`left`/`right` are ignored where the operator takes fewer
  /// inputs; kScan reads the table's schema from `db`). OutputSchema is
  /// this step applied bottom-up.
  [[nodiscard]] Result<Schema> RootOutputSchema(const Database& db,
                                                const Schema& left,
                                                const Schema& right) const;

  /// Algebra notation, e.g. "σ[week=2](Scan(Warnings))".
  std::string ToString() const;

  /// Names of all base tables scanned by this expression (with
  /// duplicates for self-joins).
  std::vector<std::string> ScannedTables() const;

  // --- Factory functions ---------------------------------------------

  /// Scan of base table `table_name`. If `alias` is non-empty, output
  /// columns are qualified as "<alias>.<col>".
  static ExprPtr Scan(std::string table_name, std::string alias = "");

  /// σ_{attr = constant}(input).
  static ExprPtr SelectConst(ExprPtr input, std::string attr, Value constant);

  /// σ_{attr_a = attr_b}(input).
  static ExprPtr SelectAttrEq(ExprPtr input, std::string attr_a,
                              std::string attr_b);

  /// π_{¬attr}(input): drops one attribute.
  static ExprPtr ProjectOut(ExprPtr input, std::string attr);

  /// Keeps exactly the referenced attributes, in the given order
  /// (duplicates allowed).
  static ExprPtr Rearrange(ExprPtr input, std::vector<std::string> attrs);

  /// left ⋈_{left_attr = right_attr} right.
  static ExprPtr Join(ExprPtr left, ExprPtr right, std::string left_attr,
                      std::string right_attr);

  /// left × right (cartesian product).
  static ExprPtr CrossJoin(ExprPtr left, ExprPtr right);

  /// GROUP BY group_by with the given aggregates. Output schema is the
  /// group-by columns followed by one column per AggSpec.
  static ExprPtr Aggregate(ExprPtr input, std::vector<std::string> group_by,
                           std::vector<AggSpec> aggs);

  /// ORDER BY: stable sort by `attrs`; `descending` (empty = all
  /// ascending) must match attrs in length when given.
  static ExprPtr Sort(ExprPtr input, std::vector<std::string> attrs,
                      std::vector<bool> descending = {});

  /// LIMIT: the first `count` rows.
  static ExprPtr Limit(ExprPtr input, size_t count);

  /// UNION ALL: bag union. The inputs' schemas must have equal arity and
  /// positionally equal column types (names may differ; the left side's
  /// names win).
  static ExprPtr Union(ExprPtr left, ExprPtr right);

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kScan;
  ExprPtr left_;
  ExprPtr right_;
  std::string table_name_;
  std::string alias_;
  std::string attr_;
  std::string attr2_;
  Value constant_;
  std::vector<std::string> attrs_;
  std::vector<AggSpec> aggs_;
  std::vector<bool> sort_desc_;
  size_t limit_ = 0;
};

}  // namespace pcdb

#endif  // PCDB_RELATIONAL_EXPR_H_
