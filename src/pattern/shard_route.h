#ifndef PCDB_PATTERN_SHARD_ROUTE_H_
#define PCDB_PATTERN_SHARD_ROUTE_H_

#include <bit>
#include <cstdint>
#include <string>

#include "common/value.h"
#include "pattern/pattern.h"
#include "pattern/signature.h"

/// \file
/// Deterministic shard routing for distributed pcdb (docs/DISTRIBUTED.md).
///
/// Two placement functions, shared by every process that must agree on
/// ownership — the coordinator (src/dist/), shard-mode servers
/// (src/server/server.cc) and the shard-mode seeding in pcdbd:
///
///  - rows of a hash-partitioned table are placed by a stable FNV-1a
///    hash over the row's type-tagged canonical bytes (host-endianness
///    independent, so a coordinator and a shard built on different
///    machines still agree);
///  - completeness statements of a hash-partitioned table are placed by
///    their *constant-position signature* (pattern/signature.h), so a
///    shard's statement partition is exactly a union of signature
///    groups, and a pattern can only be subsumed by patterns whose
///    signature is a subset of its own (docs/ALGEBRA.md, "Signatures
///    and subsumption").
///
/// Both live below the server layer on purpose: the server may not
/// include src/dist/ (the dist-layering rule), yet shard-mode write
/// filtering needs the very same placement the coordinator uses.

namespace pcdb {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t FnvMix(uint64_t h, uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}

inline uint64_t FnvMixU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) h = FnvMix(h, (v >> (8 * i)) & 0xff);
  return h;
}

/// Stable content hash of one value: a type tag followed by the value's
/// canonical little-endian bytes. Doubles hash by bit pattern, so the
/// hash distinguishes exactly what Value::operator== distinguishes.
inline uint64_t StableValueHash(uint64_t h, const Value& v) {
  h = FnvMix(h, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kInt64:
      return FnvMixU64(h, static_cast<uint64_t>(v.int64()));
    case ValueType::kDouble:
      return FnvMixU64(h, std::bit_cast<uint64_t>(v.dbl()));
    case ValueType::kString: {
      const std::string& s = v.str();
      h = FnvMixU64(h, s.size());
      for (char c : s) h = FnvMix(h, static_cast<uint8_t>(c));
      return h;
    }
  }
  return h;
}

/// Arity is mixed in first so a 1-tuple and its padding-equivalent
/// 2-tuple cannot collide structurally.
inline constexpr uint64_t FnvOffsetBasisForArity(size_t arity) {
  uint64_t h = kFnvOffsetBasis;
  h = (h ^ (arity & 0xff)) * kFnvPrime;
  return h;
}

/// Stable content hash of a whole row.
inline uint64_t StableTupleHash(const Tuple& row) {
  uint64_t h = FnvOffsetBasisForArity(row.size());
  for (const Value& v : row) h = StableValueHash(h, v);
  return h;
}

/// Shard owning `row` under `num_shards`-way hash partitioning.
/// num_shards == 0 is treated as 1 (everything on shard 0).
inline uint32_t ShardForRow(const Tuple& row, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<uint32_t>(StableTupleHash(row) % num_shards);
}

/// Shard owning a completeness statement: its constant-position
/// signature, folded through FNV-1a so the (low-bit-heavy) signature
/// values spread across shards. Every pattern of one signature group
/// lands on one shard — the invariant the per-shard local minimization
/// soundness argument rests on (docs/DISTRIBUTED.md).
inline uint32_t ShardForSignature(uint64_t signature, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<uint32_t>(FnvMixU64(kFnvOffsetBasis, signature) %
                               num_shards);
}

inline uint32_t ShardForPattern(const Pattern& p, uint32_t num_shards) {
  return ShardForSignature(PatternConstantSignature(p), num_shards);
}

}  // namespace pcdb

#endif  // PCDB_PATTERN_SHARD_ROUTE_H_
