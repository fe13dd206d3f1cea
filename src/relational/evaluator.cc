#include "relational/evaluator.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace pcdb {
namespace {

/// Poll cadence inside governed row loops: frequent enough that a
/// deadline or cancellation trips promptly, cheap enough to ignore.
constexpr size_t kRowsPerContextCheck = 1024;

Result<Table> EvalScan(const Expr& expr, const Database& db) {
  PCDB_ASSIGN_OR_RETURN(const Table* table, db.GetTable(expr.table_name()));
  PCDB_ASSIGN_OR_RETURN(Schema schema, expr.RootOutputSchema(db, {}, {}));
  Table out(std::move(schema));
  out.Reserve(table->num_rows());
  for (const Tuple& t : table->rows()) out.AppendUnchecked(t);
  return out;
}

Result<Table> EvalSelectConst(const Expr& expr, Table in) {
  PCDB_ASSIGN_OR_RETURN(size_t idx, in.schema().Resolve(expr.attr()));
  if (in.schema().column(idx).type != expr.constant().type()) {
    return Status::TypeError("selection constant type mismatch on '" +
                             expr.attr() + "'");
  }
  Table out(in.schema());
  for (const Tuple& t : in.rows()) {
    if (t[idx] == expr.constant()) out.AppendUnchecked(t);
  }
  return out;
}

Result<Table> EvalSelectAttrEq(const Expr& expr, Table in) {
  PCDB_ASSIGN_OR_RETURN(size_t a, in.schema().Resolve(expr.attr()));
  PCDB_ASSIGN_OR_RETURN(size_t b, in.schema().Resolve(expr.attr2()));
  if (in.schema().column(a).type != in.schema().column(b).type) {
    return Status::TypeError("attribute equality type mismatch between '" +
                             expr.attr() + "' and '" + expr.attr2() + "'");
  }
  Table out(in.schema());
  for (const Tuple& t : in.rows()) {
    if (t[a] == t[b]) out.AppendUnchecked(t);
  }
  return out;
}

Result<Table> EvalProjectOut(const Expr& expr, Table in) {
  PCDB_ASSIGN_OR_RETURN(size_t idx, in.schema().Resolve(expr.attr()));
  Table out(in.schema().WithoutColumn(idx));
  out.Reserve(in.num_rows());
  for (const Tuple& t : in.rows()) {
    Tuple projected;
    projected.reserve(t.size() - 1);
    for (size_t i = 0; i < t.size(); ++i) {
      if (i != idx) projected.push_back(t[i]);
    }
    out.AppendUnchecked(std::move(projected));
  }
  return out;
}

Result<Table> EvalRearrange(const Expr& expr, Table in) {
  std::vector<size_t> indices;
  indices.reserve(expr.attrs().size());
  for (const std::string& a : expr.attrs()) {
    PCDB_ASSIGN_OR_RETURN(size_t idx, in.schema().Resolve(a));
    indices.push_back(idx);
  }
  Table out(in.schema().Select(indices));
  out.Reserve(in.num_rows());
  for (const Tuple& t : in.rows()) {
    Tuple selected;
    selected.reserve(indices.size());
    for (size_t i : indices) selected.push_back(t[i]);
    out.AppendUnchecked(std::move(selected));
  }
  return out;
}

Result<Table> EvalJoin(const Expr& expr, Table lhs, Table rhs,
                       const ExecContext& ctx) {
  Schema out_schema = lhs.schema().Concat(rhs.schema());
  Table out(std::move(out_schema));
  if (expr.attr().empty()) {
    // Cartesian product. The reservation is clamped: the row-count
    // product can overflow size_t or demand absurd capacity long before
    // the loop below would ever materialize it.
    out.Reserve(internal::CartesianReserve(lhs.num_rows(), rhs.num_rows()));
    for (const Tuple& l : lhs.rows()) {
      // Per outer row: the inner loop appends rhs.num_rows() tuples, so
      // a row budget trips within one pass and a deadline within two.
      if (!ctx.unbounded()) {
        PCDB_RETURN_NOT_OK(ctx.CheckRows(out.num_rows()));
      }
      for (const Tuple& r : rhs.rows()) {
        Tuple joined = l;
        joined.insert(joined.end(), r.begin(), r.end());
        out.AppendUnchecked(std::move(joined));
      }
    }
    return out;
  }
  PCDB_ASSIGN_OR_RETURN(size_t a, lhs.schema().Resolve(expr.attr()));
  PCDB_ASSIGN_OR_RETURN(size_t b, rhs.schema().Resolve(expr.attr2()));
  if (lhs.schema().column(a).type != rhs.schema().column(b).type) {
    return Status::TypeError("join attribute type mismatch between '" +
                             expr.attr() + "' and '" + expr.attr2() + "'");
  }
  // Hash join: build on the smaller side.
  const bool build_left = lhs.num_rows() <= rhs.num_rows();
  const Table& build = build_left ? lhs : rhs;
  const Table& probe = build_left ? rhs : lhs;
  const size_t build_key = build_left ? a : b;
  const size_t probe_key = build_left ? b : a;
  std::unordered_multimap<Value, const Tuple*, ValueHash> index;
  index.reserve(build.num_rows());
  for (const Tuple& t : build.rows()) index.emplace(t[build_key], &t);

  // Probe in row order, appending straight to the output; equal_range
  // iteration order on a const multimap is fixed, so the row order is
  // deterministic.
  PCDB_FAILPOINT("eval.join.probe");
  for (size_t row = 0; row < probe.num_rows(); ++row) {
    if (!ctx.unbounded() && row % kRowsPerContextCheck == 0) {
      PCDB_RETURN_NOT_OK(ctx.CheckRows(out.num_rows()));
    }
    const Tuple& t = probe.row(row);
    auto [first, last] = index.equal_range(t[probe_key]);
    for (auto it = first; it != last; ++it) {
      const Tuple& l = build_left ? *it->second : t;
      const Tuple& r = build_left ? t : *it->second;
      Tuple joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      out.AppendUnchecked(std::move(joined));
    }
  }
  return out;
}

Result<Table> EvalSort(const Expr& expr, Table in) {
  std::vector<size_t> keys;
  keys.reserve(expr.attrs().size());
  for (const std::string& a : expr.attrs()) {
    PCDB_ASSIGN_OR_RETURN(size_t idx, in.schema().Resolve(a));
    keys.push_back(idx);
  }
  const std::vector<bool>& desc = expr.sort_descending();
  std::vector<Tuple> rows = in.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     for (size_t k = 0; k < keys.size(); ++k) {
                       const Value& va = a[keys[k]];
                       const Value& vb = b[keys[k]];
                       if (va == vb) continue;
                       bool less = va < vb;
                       return (k < desc.size() && desc[k]) ? !less : less;
                     }
                     return false;
                   });
  Table out(in.schema());
  out.Reserve(rows.size());
  for (Tuple& t : rows) out.AppendUnchecked(std::move(t));
  return out;
}

Result<Table> EvalLimit(const Expr& expr, Table in) {
  if (in.num_rows() <= expr.limit()) return in;
  Table out(in.schema());
  out.Reserve(expr.limit());
  for (size_t r = 0; r < expr.limit(); ++r) out.AppendUnchecked(in.row(r));
  return out;
}

/// Running aggregate state for one group and one AggSpec.
struct AggState {
  int64_t count = 0;
  double sum_double = 0;
  int64_t sum_int = 0;
  bool has_value = false;
  Value min;
  Value max;
};

Result<Table> EvalAggregate(const Expr& expr, Table in, const Database& db,
                            const ExecContext& ctx) {
  std::vector<size_t> group_idx;
  group_idx.reserve(expr.attrs().size());
  for (const std::string& g : expr.attrs()) {
    PCDB_ASSIGN_OR_RETURN(size_t idx, in.schema().Resolve(g));
    group_idx.push_back(idx);
  }
  std::vector<int64_t> agg_idx;  // -1 for COUNT(*)
  for (const AggSpec& agg : expr.aggs()) {
    if (agg.attr.empty()) {
      agg_idx.push_back(-1);
    } else {
      PCDB_ASSIGN_OR_RETURN(size_t idx, in.schema().Resolve(agg.attr));
      // SUM/AVG need a numeric column; rejecting here (rather than
      // skipping string cells or aborting in Value::AsDouble) keeps the
      // error a clean Status for every input instance.
      if ((agg.func == AggFunc::kSum || agg.func == AggFunc::kAvg) &&
          in.schema().column(idx).type == ValueType::kString) {
        return Status::TypeError("cannot aggregate string column '" +
                                 agg.attr + "' with SUM/AVG");
      }
      agg_idx.push_back(static_cast<int64_t>(idx));
    }
  }

  struct Group {
    Tuple key;
    std::vector<AggState> states;
  };
  std::unordered_map<Tuple, size_t, TupleHash> group_of;
  std::vector<Group> groups;
  size_t row_no = 0;
  for (const Tuple& t : in.rows()) {
    if (!ctx.unbounded() && row_no++ % kRowsPerContextCheck == 0) {
      PCDB_RETURN_NOT_OK(ctx.Check());
    }
    Tuple key;
    key.reserve(group_idx.size());
    for (size_t i : group_idx) key.push_back(t[i]);
    auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) {
      groups.push_back(
          Group{std::move(key), std::vector<AggState>(expr.aggs().size())});
    }
    Group& g = groups[it->second];
    for (size_t k = 0; k < expr.aggs().size(); ++k) {
      AggState& s = g.states[k];
      s.count += 1;
      if (agg_idx[k] < 0) continue;
      const Value& v = t[static_cast<size_t>(agg_idx[k])];
      if (!v.is_string()) {
        if (v.is_int64()) {
          s.sum_int += v.int64();
        }
        PCDB_ASSIGN_OR_RETURN(double d, v.AsDouble());
        s.sum_double += d;
      }
      if (!s.has_value) {
        s.min = v;
        s.max = v;
        s.has_value = true;
      } else {
        if (v < s.min) s.min = v;
        if (s.max < v) s.max = v;
      }
    }
  }

  PCDB_ASSIGN_OR_RETURN(Schema out_schema,
                        expr.RootOutputSchema(db, in.schema(), {}));
  Table out(std::move(out_schema));
  out.Reserve(groups.size());
  for (const Group& g : groups) {
    Tuple row = g.key;
    for (size_t k = 0; k < expr.aggs().size(); ++k) {
      const AggState& s = g.states[k];
      const AggSpec& spec = expr.aggs()[k];
      switch (spec.func) {
        case AggFunc::kCount:
          row.push_back(Value(s.count));
          break;
        case AggFunc::kSum: {
          size_t col = g.key.size() + k;
          if (out.schema().column(col).type == ValueType::kDouble) {
            row.push_back(Value(s.sum_double));
          } else {
            row.push_back(Value(s.sum_int));
          }
          break;
        }
        case AggFunc::kMin:
          row.push_back(s.min);
          break;
        case AggFunc::kMax:
          row.push_back(s.max);
          break;
        case AggFunc::kAvg:
          row.push_back(Value(s.count == 0 ? 0.0 : s.sum_double / s.count));
          break;
      }
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

/// The undecorated operator dispatch; the governed ApplyRootOperator
/// wraps it with the failpoint and the context checks.
Result<Table> ApplyRootOperatorImpl(const Expr& expr, const Database& db,
                                    Table left, Table right,
                                    const ExecContext& ctx) {
  switch (expr.kind()) {
    case ExprKind::kScan:
      return EvalScan(expr, db);
    case ExprKind::kSelectConst:
      return EvalSelectConst(expr, std::move(left));
    case ExprKind::kSelectAttrEq:
      return EvalSelectAttrEq(expr, std::move(left));
    case ExprKind::kProjectOut:
      return EvalProjectOut(expr, std::move(left));
    case ExprKind::kRearrange:
      return EvalRearrange(expr, std::move(left));
    case ExprKind::kJoin:
      return EvalJoin(expr, std::move(left), std::move(right), ctx);
    case ExprKind::kAggregate:
      return EvalAggregate(expr, std::move(left), db, ctx);
    case ExprKind::kSort:
      return EvalSort(expr, std::move(left));
    case ExprKind::kLimit:
      return EvalLimit(expr, std::move(left));
    case ExprKind::kUnion: {
      PCDB_ASSIGN_OR_RETURN(
          Schema schema,
          expr.RootOutputSchema(db, left.schema(), right.schema()));
      Table out(std::move(schema));
      out.Reserve(left.num_rows() + right.num_rows());
      for (const Tuple& t : left.rows()) out.AppendUnchecked(t);
      for (const Tuple& t : right.rows()) out.AppendUnchecked(t);
      return out;
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace

namespace internal {

size_t CartesianReserve(size_t lhs_rows, size_t rhs_rows) {
  // Pre-reserving beyond a few million rows buys little over amortized
  // growth and risks an enormous up-front allocation.
  constexpr size_t kMaxReserve = size_t{1} << 22;  // ~4M rows
  if (lhs_rows == 0 || rhs_rows == 0) return 0;
  if (lhs_rows > std::numeric_limits<size_t>::max() / rhs_rows) {
    return kMaxReserve;  // product overflows size_t
  }
  return std::min(lhs_rows * rhs_rows, kMaxReserve);
}

}  // namespace internal

namespace {

/// Static span names (the tracer stores the pointer, never copies).
const char* EvalSpanName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kScan:
      return kSpanEvalScan;
    case ExprKind::kSelectConst:
      return kSpanEvalSelectConst;
    case ExprKind::kSelectAttrEq:
      return kSpanEvalSelectAttrEq;
    case ExprKind::kProjectOut:
      return kSpanEvalProjectOut;
    case ExprKind::kRearrange:
      return kSpanEvalRearrange;
    case ExprKind::kJoin:
      return kSpanEvalJoin;
    case ExprKind::kAggregate:
      return kSpanEvalAggregate;
    case ExprKind::kSort:
      return kSpanEvalSort;
    case ExprKind::kLimit:
      return kSpanEvalLimit;
    case ExprKind::kUnion:
      return kSpanEvalUnion;
  }
  return kSpanEvalOperator;
}

}  // namespace

Result<Table> ApplyRootOperator(const Expr& expr, const Database& db,
                                Table left, Table right,
                                const ExecContext& ctx) {
  PCDB_TRACE_SPAN(span, EvalSpanName(expr.kind()));
  PCDB_FAILPOINT("eval.operator");
  PCDB_RETURN_NOT_OK(ctx.Check());
  span.Arg("input_rows", left.num_rows() + right.num_rows());
  PCDB_ASSIGN_OR_RETURN(
      Table out,
      ApplyRootOperatorImpl(expr, db, std::move(left), std::move(right), ctx));
  PCDB_RETURN_NOT_OK(ctx.CheckRows(out.num_rows()));
  span.Arg("rows", out.num_rows());
  return out;
}

namespace {

Result<Table> EvaluateTree(const Expr& expr, const Database& db,
                           const ExecContext& ctx) {
  Table left;
  Table right;
  if (expr.left() != nullptr) {
    PCDB_ASSIGN_OR_RETURN(left, EvaluateTree(*expr.left(), db, ctx));
  }
  if (expr.right() != nullptr) {
    PCDB_ASSIGN_OR_RETURN(right, EvaluateTree(*expr.right(), db, ctx));
  }
  return ApplyRootOperator(expr, db, std::move(left), std::move(right), ctx);
}

}  // namespace

Result<Table> Evaluate(const Expr& expr, const Database& db) {
  return Evaluate(expr, db, ExecContext::Unbounded());
}

Result<Table> Evaluate(const Expr& expr, const Database& db,
                       const ExecContext& ctx) {
  // The exception guard turns a throw-action failpoint into
  // Status::Internal instead of terminating the process.
  try {
    return EvaluateTree(expr, db, ctx);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("evaluation failed: ") + e.what());
  }
}

}  // namespace pcdb
