#ifndef PCDB_PATTERN_SIGNATURE_H_
#define PCDB_PATTERN_SIGNATURE_H_

#include <algorithm>
#include <cstdint>

#include "pattern/pattern.h"

/// \file
/// The *constant-position signature* of a pattern: the bit mask of its
/// non-wildcard positions, capped at 64 bits. Patterns with incomparable
/// signatures can never subsume one another (docs/ALGEBRA.md, "Signatures
/// and subsumption"). Two subsystems rely on that:
///
///  - distributed mode places a hash-partitioned table's completeness
///    statements by signature (pattern/shard_route.h), and the
///    coordinator's merge-minimize relies on the lemma for soundness;
///  - the server's answer cache keys pattern-mutation epochs by
///    signature, so a punctuation touching one signature invalidates
///    only the cached answers whose query overlaps it (docs/SERVER.md).
///
/// The cap is sound for both uses: dropping positions beyond 64
/// preserves the subset relation between masks.

namespace pcdb {

/// Bit mask of the constant (non-wildcard) positions of `p`, capped at
/// 64 bits. If q subsumes p then q's constants are a subset of p's, so
/// `sig(q) ⊆ sig(p)` — even under the cap.
inline uint64_t PatternConstantSignature(const Pattern& p) {
  uint64_t mask = 0;
  const size_t n = std::min<size_t>(p.arity(), 64);
  for (size_t i = 0; i < n; ++i) {
    if (!p.IsWildcard(i)) mask |= uint64_t{1} << i;
  }
  return mask;
}

/// True when one signature's constant set contains the other's
/// (`a ⊆ b` or `b ⊆ a`). Subsumption between two patterns is possible
/// only when their signatures are comparable; the answer cache uses the
/// same test to decide whether a pattern mutation can sharpen a cached
/// query's completeness annotation (see docs/SERVER.md — incomparable
/// mutations may leave an entry's pattern set conservatively smaller,
/// which is sound: patterns are promises, and promising less never
/// over-claims completeness).
inline bool SignaturesComparable(uint64_t a, uint64_t b) {
  return (a & b) == a || (a & b) == b;
}

}  // namespace pcdb

#endif  // PCDB_PATTERN_SIGNATURE_H_
