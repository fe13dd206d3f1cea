#include "relational/expr.h"

#include "common/logging.h"

namespace pcdb {

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

namespace {

ValueType AggOutputType(AggFunc func, ValueType input) {
  switch (func) {
    case AggFunc::kCount:
      return ValueType::kInt64;
    case AggFunc::kSum:
      return input == ValueType::kDouble ? ValueType::kDouble
                                         : ValueType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return input;
    case AggFunc::kAvg:
      return ValueType::kDouble;
  }
  return input;
}

}  // namespace

Result<Schema> Expr::OutputSchema(const Database& db) const {
  Schema left;
  Schema right;
  if (left_ != nullptr) {
    PCDB_ASSIGN_OR_RETURN(left, left_->OutputSchema(db));
  }
  if (right_ != nullptr) {
    PCDB_ASSIGN_OR_RETURN(right, right_->OutputSchema(db));
  }
  return RootOutputSchema(db, left, right);
}

Result<Schema> Expr::RootOutputSchema(const Database& db, const Schema& left,
                                      const Schema& right) const {
  switch (kind_) {
    case ExprKind::kScan: {
      PCDB_ASSIGN_OR_RETURN(const Table* table, db.GetTable(table_name_));
      if (alias_.empty()) return table->schema();
      return table->schema().Qualify(alias_);
    }
    case ExprKind::kSelectConst: {
      PCDB_ASSIGN_OR_RETURN(size_t idx, left.Resolve(attr_));
      if (left.column(idx).type != constant_.type()) {
        return Status::TypeError("selection constant '" +
                                 constant_.ToString() + "' does not match " +
                                 "type of attribute '" + attr_ + "'");
      }
      return left;
    }
    case ExprKind::kSelectAttrEq: {
      PCDB_ASSIGN_OR_RETURN(size_t a, left.Resolve(attr_));
      PCDB_ASSIGN_OR_RETURN(size_t b, left.Resolve(attr2_));
      if (left.column(a).type != left.column(b).type) {
        return Status::TypeError("attribute equality between '" + attr_ +
                                 "' and '" + attr2_ +
                                 "' compares different types");
      }
      return left;
    }
    case ExprKind::kProjectOut: {
      PCDB_ASSIGN_OR_RETURN(size_t idx, left.Resolve(attr_));
      return left.WithoutColumn(idx);
    }
    case ExprKind::kRearrange: {
      std::vector<size_t> indices;
      indices.reserve(attrs_.size());
      for (const std::string& a : attrs_) {
        PCDB_ASSIGN_OR_RETURN(size_t idx, left.Resolve(a));
        indices.push_back(idx);
      }
      return left.Select(indices);
    }
    case ExprKind::kJoin: {
      if (!attr_.empty()) {
        PCDB_ASSIGN_OR_RETURN(size_t a, left.Resolve(attr_));
        PCDB_ASSIGN_OR_RETURN(size_t b, right.Resolve(attr2_));
        if (left.column(a).type != right.column(b).type) {
          return Status::TypeError("join between '" + attr_ + "' and '" +
                                   attr2_ + "' compares different types");
        }
      }
      return left.Concat(right);
    }
    case ExprKind::kSort: {
      for (const std::string& a : attrs_) {
        PCDB_RETURN_NOT_OK(left.Resolve(a).status());
      }
      return left;
    }
    case ExprKind::kLimit:
      return left;
    case ExprKind::kUnion: {
      if (left.arity() != right.arity()) {
        return Status::TypeError("UNION ALL inputs have different arities");
      }
      for (size_t i = 0; i < left.arity(); ++i) {
        if (left.column(i).type != right.column(i).type) {
          return Status::TypeError(
              "UNION ALL inputs disagree on the type of column " +
              std::to_string(i));
        }
      }
      return left;
    }
    case ExprKind::kAggregate: {
      std::vector<Column> cols;
      for (const std::string& g : attrs_) {
        PCDB_ASSIGN_OR_RETURN(size_t idx, left.Resolve(g));
        cols.push_back(left.column(idx));
      }
      for (const AggSpec& agg : aggs_) {
        ValueType input_type = ValueType::kInt64;
        if (!agg.attr.empty()) {
          PCDB_ASSIGN_OR_RETURN(size_t idx, left.Resolve(agg.attr));
          input_type = left.column(idx).type;
          if (agg.func != AggFunc::kMin && agg.func != AggFunc::kMax &&
              agg.func != AggFunc::kCount &&
              input_type == ValueType::kString) {
            return Status::TypeError(std::string(AggFuncToString(agg.func)) +
                                     " over string attribute '" + agg.attr +
                                     "'");
          }
        } else if (agg.func != AggFunc::kCount) {
          return Status::InvalidArgument(
              std::string(AggFuncToString(agg.func)) +
              " requires an attribute argument");
        }
        std::string name = agg.output_name;
        if (name.empty()) {
          name = std::string(AggFuncToString(agg.func)) + "(" +
                 (agg.attr.empty() ? "*" : agg.attr) + ")";
        }
        cols.push_back(Column{name, AggOutputType(agg.func, input_type)});
      }
      return Schema(std::move(cols));
    }
  }
  return Status::Internal("unhandled expression kind");
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kScan:
      return alias_.empty() ? "Scan(" + table_name_ + ")"
                            : "Scan(" + table_name_ + " AS " + alias_ + ")";
    case ExprKind::kSelectConst:
      return "σ[" + attr_ + "=" + constant_.ToString() + "](" +
             left_->ToString() + ")";
    case ExprKind::kSelectAttrEq:
      return "σ[" + attr_ + "=" + attr2_ + "](" + left_->ToString() + ")";
    case ExprKind::kProjectOut:
      return "π[¬" + attr_ + "](" + left_->ToString() + ")";
    case ExprKind::kRearrange: {
      std::string list;
      for (size_t i = 0; i < attrs_.size(); ++i) {
        if (i > 0) list += ",";
        list += attrs_[i];
      }
      return "π[" + list + "](" + left_->ToString() + ")";
    }
    case ExprKind::kJoin: {
      std::string out = "(";
      out += left_->ToString();
      if (attr_.empty()) {
        out += " × ";
      } else {
        out += " ⋈[" + attr_ + "=" + attr2_ + "] ";
      }
      out += right_->ToString();
      out += ")";
      return out;
    }
    case ExprKind::kSort: {
      std::string list;
      for (size_t i = 0; i < attrs_.size(); ++i) {
        if (i > 0) list += ",";
        list += attrs_[i];
        if (i < sort_desc_.size() && sort_desc_[i]) list += " DESC";
      }
      return "τ[" + list + "](" + left_->ToString() + ")";
    }
    case ExprKind::kLimit:
      return "limit[" + std::to_string(limit_) + "](" + left_->ToString() +
             ")";
    case ExprKind::kUnion: {
      std::string out = "(";
      out += left_->ToString();
      out += " ∪ ";
      out += right_->ToString();
      out += ")";
      return out;
    }
    case ExprKind::kAggregate: {
      std::string spec = "γ[";
      for (size_t i = 0; i < attrs_.size(); ++i) {
        if (i > 0) spec += ",";
        spec += attrs_[i];
      }
      for (const AggSpec& agg : aggs_) {
        if (spec.back() != '[') spec += ",";
        spec += std::string(AggFuncToString(agg.func)) + "(" +
                (agg.attr.empty() ? "*" : agg.attr) + ")";
      }
      return spec + "](" + left_->ToString() + ")";
    }
  }
  return "?";
}

std::vector<std::string> Expr::ScannedTables() const {
  std::vector<std::string> out;
  if (kind_ == ExprKind::kScan) {
    out.push_back(table_name_);
    return out;
  }
  if (left_) {
    auto l = left_->ScannedTables();
    out.insert(out.end(), l.begin(), l.end());
  }
  if (right_) {
    auto r = right_->ScannedTables();
    out.insert(out.end(), r.begin(), r.end());
  }
  return out;
}

ExprPtr Expr::Scan(std::string table_name, std::string alias) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kScan;
  e->table_name_ = std::move(table_name);
  e->alias_ = std::move(alias);
  return e;
}

ExprPtr Expr::SelectConst(ExprPtr input, std::string attr, Value constant) {
  PCDB_CHECK(input != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kSelectConst;
  e->left_ = std::move(input);
  e->attr_ = std::move(attr);
  e->constant_ = std::move(constant);
  return e;
}

ExprPtr Expr::SelectAttrEq(ExprPtr input, std::string attr_a,
                           std::string attr_b) {
  PCDB_CHECK(input != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kSelectAttrEq;
  e->left_ = std::move(input);
  e->attr_ = std::move(attr_a);
  e->attr2_ = std::move(attr_b);
  return e;
}

ExprPtr Expr::ProjectOut(ExprPtr input, std::string attr) {
  PCDB_CHECK(input != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kProjectOut;
  e->left_ = std::move(input);
  e->attr_ = std::move(attr);
  return e;
}

ExprPtr Expr::Rearrange(ExprPtr input, std::vector<std::string> attrs) {
  PCDB_CHECK(input != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kRearrange;
  e->left_ = std::move(input);
  e->attrs_ = std::move(attrs);
  return e;
}

ExprPtr Expr::Join(ExprPtr left, ExprPtr right, std::string left_attr,
                   std::string right_attr) {
  PCDB_CHECK(left != nullptr && right != nullptr);
  PCDB_CHECK(!left_attr.empty() && !right_attr.empty());
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kJoin;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  e->attr_ = std::move(left_attr);
  e->attr2_ = std::move(right_attr);
  return e;
}

ExprPtr Expr::CrossJoin(ExprPtr left, ExprPtr right) {
  PCDB_CHECK(left != nullptr && right != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kJoin;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::Aggregate(ExprPtr input, std::vector<std::string> group_by,
                        std::vector<AggSpec> aggs) {
  PCDB_CHECK(input != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kAggregate;
  e->left_ = std::move(input);
  e->attrs_ = std::move(group_by);
  e->aggs_ = std::move(aggs);
  return e;
}

ExprPtr Expr::Sort(ExprPtr input, std::vector<std::string> attrs,
                   std::vector<bool> descending) {
  PCDB_CHECK(input != nullptr);
  PCDB_CHECK(descending.empty() || descending.size() == attrs.size());
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kSort;
  e->left_ = std::move(input);
  e->attrs_ = std::move(attrs);
  e->sort_desc_ = std::move(descending);
  return e;
}

ExprPtr Expr::Limit(ExprPtr input, size_t count) {
  PCDB_CHECK(input != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLimit;
  e->left_ = std::move(input);
  e->limit_ = count;
  return e;
}

ExprPtr Expr::Union(ExprPtr left, ExprPtr right) {
  PCDB_CHECK(left != nullptr && right != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kUnion;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

}  // namespace pcdb
