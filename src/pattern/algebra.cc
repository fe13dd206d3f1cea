#include "pattern/algebra.h"

#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace pcdb {
namespace {

/// Collects output patterns with deduplication.
class DedupSink {
 public:
  void Add(Pattern p) {
    if (seen_.insert(p).second) out_.Add(std::move(p));
  }
  PatternSet Take() { return std::move(out_); }

 private:
  std::unordered_set<Pattern, PatternHash> seen_;
  PatternSet out_;
};

}  // namespace

PatternSet PatternSelectConst(const PatternSet& input, size_t attr,
                              const Value& d) {
  DedupSink sink;
  for (const Pattern& p : input) {
    PCDB_CHECK(attr < p.arity());
    if (p.IsWildcard(attr)) {
      sink.Add(p);
    } else if (p.value(attr) == d) {
      sink.Add(p.WithWildcard(attr));
    }
    // Other constants: irrelevant for the selection output.
  }
  return sink.Take();
}

PatternSet PatternProjectOut(const PatternSet& input, size_t attr) {
  DedupSink sink;
  for (const Pattern& p : input) {
    PCDB_CHECK(attr < p.arity());
    if (p.IsWildcard(attr)) {
      sink.Add(p.WithoutPosition(attr));
    }
  }
  return sink.Take();
}

PatternSet PatternSelectAttrEq(const PatternSet& input, size_t attr_a,
                               size_t attr_b) {
  // σ_{A=A} is the identity on the data — and must be on the metadata:
  // the (A≠B) rules below would unsoundly generalize constants at A.
  if (attr_a == attr_b) return input;
  DedupSink sink;
  for (const Pattern& p : input) {
    PCDB_CHECK(attr_a < p.arity() && attr_b < p.arity());
    const bool wild_a = p.IsWildcard(attr_a);
    const bool wild_b = p.IsWildcard(attr_b);
    if (wild_a || wild_b) {
      sink.Add(p);
      // The swapped twin is semantically equivalent over the selection
      // output but must be materialized so that later projections of
      // either attribute keep one version (§4.1.3).
      sink.Add(p.WithSwapped(attr_a, attr_b));
    } else if (p.value(attr_a) == p.value(attr_b)) {
      sink.Add(p.WithWildcard(attr_a));
      sink.Add(p.WithWildcard(attr_b));
    }
    // Distinct constants at A and B: the pattern cannot subsume any
    // output row; dropped (see zombie.h for the extension that keeps
    // such knowledge).
  }
  return sink.Take();
}

PatternSet PatternRearrange(const PatternSet& input,
                            const std::vector<size_t>& indices) {
  DedupSink sink;
  for (const Pattern& p : input) {
    // Positions absent from `indices` are projected away: as with
    // π̃_{¬A}, the pattern must hold '*' there — a constant means
    // completeness of a slice the output cannot distinguish. (Found by
    // the expression fuzzer: mapping cells blindly was unsound for
    // SELECT lists that drop columns.)
    std::vector<bool> kept(p.arity(), false);
    for (size_t i : indices) {
      PCDB_CHECK(i < p.arity());
      kept[i] = true;
    }
    bool survives = true;
    for (size_t i = 0; i < p.arity(); ++i) {
      if (!kept[i] && !p.IsWildcard(i)) {
        survives = false;
        break;
      }
    }
    if (!survives) continue;
    std::vector<Pattern::Cell> cells;
    cells.reserve(indices.size());
    for (size_t i : indices) cells.push_back(p.cell(i));
    sink.Add(Pattern(std::move(cells)));
  }
  return sink.Take();
}

PatternSet PatternCross(const PatternSet& left, const PatternSet& right) {
  DedupSink sink;
  for (const Pattern& l : left) {
    for (const Pattern& r : right) {
      sink.Add(l.Concat(r));
    }
  }
  return sink.Take();
}

namespace {

/// Emits the σ̃_{A=B} results for one concatenated pattern pair, where
/// `a` and `b` are the two join positions in the combined pattern.
void EmitJoinedPair(const Pattern& combined, size_t a, size_t b,
                    DedupSink* sink) {
  const bool wild_a = combined.IsWildcard(a);
  const bool wild_b = combined.IsWildcard(b);
  if (wild_a || wild_b) {
    sink->Add(combined);
    sink->Add(combined.WithSwapped(a, b));
  } else if (combined.value(a) == combined.value(b)) {
    sink->Add(combined.WithWildcard(a));
    sink->Add(combined.WithWildcard(b));
  }
}

}  // namespace

PatternSet PatternJoin(const PatternSet& left, size_t attr_a,
                       const PatternSet& right, size_t attr_b,
                       PatternJoinStrategy strategy) {
  if (left.empty() || right.empty()) return PatternSet();
  const size_t left_arity = left[0].arity();
  const size_t a = attr_a;
  const size_t b = left_arity + attr_b;
  DedupSink sink;

  if (strategy == PatternJoinStrategy::kCrossProductSelect) {
    // Literal definition: materialize P × P', then select.
    PatternSet cross = PatternCross(left, right);
    for (const Pattern& combined : cross) {
      EmitJoinedPair(combined, a, b, &sink);
    }
    return sink.Take();
  }

  // Partitioned form: split both sides into the wildcard partition and
  // per-constant partitions on the join attribute, then combine
  // (*,*) ∪ (*,d) ∪ (d,*) ∪ (d,d).
  std::vector<const Pattern*> left_wild;
  std::vector<const Pattern*> right_wild;
  std::vector<const Pattern*> right_all;
  std::unordered_map<Value, std::vector<const Pattern*>, ValueHash> left_by;
  std::unordered_map<Value, std::vector<const Pattern*>, ValueHash> right_by;
  for (const Pattern& p : left) {
    PCDB_CHECK(attr_a < p.arity());
    if (p.IsWildcard(attr_a)) {
      left_wild.push_back(&p);
    } else {
      left_by[p.value(attr_a)].push_back(&p);
    }
  }
  for (const Pattern& p : right) {
    PCDB_CHECK(attr_b < p.arity());
    right_all.push_back(&p);
    if (p.IsWildcard(attr_b)) {
      right_wild.push_back(&p);
    } else {
      right_by[p.value(attr_b)].push_back(&p);
    }
  }

  // Each left pattern joins with its partition mates on the right.
  auto join_with = [&](const Pattern& l,
                       const std::vector<const Pattern*>& rs) {
    for (const Pattern* r : rs) EmitJoinedPair(l.Concat(*r), a, b, &sink);
  };
  // (*,*) and (*,d): left wildcard joins with everything.
  for (const Pattern* l : left_wild) join_with(*l, right_all);
  // (d,*) and (d,d): constant left with the wildcard partition and its
  // matching constant partition.
  for (const auto& [value, ls] : left_by) {
    auto it = right_by.find(value);
    for (const Pattern* l : ls) {
      join_with(*l, right_wild);
      if (it != right_by.end()) join_with(*l, it->second);
    }
  }
  return sink.Take();
}

PatternSet PatternUnion(const PatternSet& left, const PatternSet& right) {
  DedupSink sink;
  for (const Pattern& l : left) {
    for (const Pattern& r : right) {
      if (l.UnifiableWith(r)) sink.Add(l.UnifyWith(r));
    }
  }
  return sink.Take();
}

PatternSet PatternLimit(const PatternSet& input) {
  for (const Pattern& p : input) {
    if (p.IsAllWildcards()) return input;
  }
  return PatternSet();
}

PatternSet PatternAggregate(const PatternSet& input,
                            const std::vector<size_t>& group_by,
                            size_t num_aggs) {
  DedupSink sink;
  for (const Pattern& p : input) {
    // The pattern must not constrain any attribute that the grouping
    // collapses away: a constant outside the group-by attributes means
    // completeness of a slice only, which says nothing about whole
    // groups.
    bool survives = true;
    for (size_t i = 0; i < p.arity() && survives; ++i) {
      bool grouped = false;
      for (size_t g : group_by) {
        if (g == i) {
          grouped = true;
          break;
        }
      }
      if (!grouped && !p.IsWildcard(i)) survives = false;
    }
    if (!survives) continue;
    std::vector<Pattern::Cell> cells;
    cells.reserve(group_by.size() + num_aggs);
    for (size_t g : group_by) {
      PCDB_CHECK(g < p.arity());
      cells.push_back(p.cell(g));
    }
    for (size_t k = 0; k < num_aggs; ++k) {
      cells.push_back(Pattern::Wildcard());
    }
    sink.Add(Pattern(std::move(cells)));
  }
  return sink.Take();
}

}  // namespace pcdb
