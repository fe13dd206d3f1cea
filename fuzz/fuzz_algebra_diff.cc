#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "fuzz_util.h"
#include "pattern/algebra.h"
#include "pattern/minimize.h"
#include "pattern/pattern.h"

/// Differential pattern-algebra harness.
///
/// The input bytes decode into two random pattern sets and a short SPJ
/// operator pipeline (select-const, select-attr-eq, project-out, join,
/// union — the §4.1 algebra). The soundness/completeness theorems make
/// every evaluation route an oracle for the others:
///   * Minimize must produce SetEquals-identical results across
///     approaches 1–3 × index structures A–D (§4.4);
///   * PatternJoin must agree between the literal cross-product-select
///     definition and the partitioned hash join;
///   * minimization output must actually be minimal (IsMinimal).
namespace {

using pcdb::MinimizeApproach;
using pcdb::Pattern;
using pcdb::PatternIndexKind;
using pcdb::PatternSet;
using pcdb::Value;
using pcdb::fuzz::ByteReader;
using pcdb::fuzz::Violation;

constexpr MinimizeApproach kApproaches[] = {
    MinimizeApproach::kAllAtOnce,
    MinimizeApproach::kIncremental,
    MinimizeApproach::kSortedIncremental,
};
constexpr PatternIndexKind kKinds[] = {
    PatternIndexKind::kLinearList,
    PatternIndexKind::kHashTable,
    PatternIndexKind::kPathIndex,
    PatternIndexKind::kDiscriminationTree,
};

/// A pattern of `arity` cells over a 3-value domain, wildcard-biased so
/// subsumption chains actually occur.
Pattern TakePattern(ByteReader* in, size_t arity) {
  std::vector<Pattern::Cell> cells;
  cells.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    const size_t pick = in->TakeBelow(6);
    if (pick < 3) {
      cells.push_back(Pattern::Wildcard());
    } else {
      cells.push_back(Value("v" + std::to_string(pick - 3)));
    }
  }
  return Pattern(std::move(cells));
}

PatternSet TakePatternSet(ByteReader* in, size_t arity, size_t max_patterns) {
  PatternSet out;
  const size_t n = in->TakeBelow(max_patterns + 1);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!out.empty() && in->TakeBelow(5) == 0) {
      out.Add(out[in->TakeBelow(out.size())]);  // duplicate on purpose
    } else {
      out.Add(TakePattern(in, arity));
    }
  }
  return out;
}

/// Checks the full method matrix against the D1 reference result.
void CheckMinimizeMatrix(const PatternSet& input, const std::string& trail) {
  const PatternSet reference =
      Minimize(input, MinimizeApproach::kAllAtOnce,
               PatternIndexKind::kDiscriminationTree);
  if (!IsMinimal(reference)) {
    Violation("Minimize(D1) produced a non-minimal set", trail);
  }
  for (MinimizeApproach approach : kApproaches) {
    for (PatternIndexKind kind : kKinds) {
      if (!Minimize(input, approach, kind).SetEquals(reference)) {
        Violation("Minimize diverged for " +
                      pcdb::MinimizeMethodName(kind, approach),
                  trail + "\ninput:\n" + input.ToString());
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in(data, size);

  const size_t arity = in.TakeInRange(1, 5);
  PatternSet current = TakePatternSet(&in, arity, 24);
  size_t current_arity = arity;
  std::string trail = "arity=" + std::to_string(arity);

  // A short pipeline of algebra operators over `current`.
  const size_t num_ops = in.TakeBelow(4);
  for (size_t step = 0; step < num_ops; ++step) {
    switch (in.TakeBelow(5)) {
      case 0: {
        const size_t attr = in.TakeBelow(current_arity);
        current = PatternSelectConst(current, attr,
                                     Value("v" + std::to_string(
                                                     in.TakeBelow(3))));
        trail += " selectconst@" + std::to_string(attr);
        break;
      }
      case 1: {
        if (current_arity < 2) break;
        const size_t a = in.TakeBelow(current_arity);
        size_t b = in.TakeBelow(current_arity);
        if (a == b) b = (b + 1) % current_arity;
        current = PatternSelectAttrEq(current, a, b);
        trail += " selecteq@" + std::to_string(a) + "," + std::to_string(b);
        break;
      }
      case 2: {
        if (current_arity < 2) break;
        const size_t attr = in.TakeBelow(current_arity);
        current = PatternProjectOut(current, attr);
        --current_arity;
        trail += " projectout@" + std::to_string(attr);
        break;
      }
      case 3: {
        const size_t right_arity = in.TakeInRange(1, 3);
        const PatternSet right = TakePatternSet(&in, right_arity, 12);
        const size_t a = in.TakeBelow(current_arity);
        const size_t b = in.TakeBelow(right_arity);
        // Differential join: literal definition vs partitioned.
        // Equivalence holds up to subsumption, so compare minimized sets.
        const PatternSet cross =
            PatternJoin(current, a, right, b,
                        pcdb::PatternJoinStrategy::kCrossProductSelect);
        const PatternSet part =
            PatternJoin(current, a, right, b,
                        pcdb::PatternJoinStrategy::kPartitionedHashJoin);
        if (!Minimize(part).SetEquals(Minimize(cross))) {
          Violation("partitioned join diverged from cross-product join",
                    trail + "\nleft:\n" + current.ToString() + "right:\n" +
                        right.ToString());
        }
        current = part;
        current_arity += right_arity;
        trail += " join@" + std::to_string(a) + "," + std::to_string(b);
        break;
      }
      case 4: {
        const PatternSet right = TakePatternSet(&in, current_arity, 12);
        current = PatternUnion(current, right);
        trail += " union";
        break;
      }
    }
  }

  CheckMinimizeMatrix(current, trail);
  return 0;
}
