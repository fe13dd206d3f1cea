#ifndef PCDB_PATTERN_PATTERN_INDEX_H_
#define PCDB_PATTERN_PATTERN_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "pattern/pattern.h"

namespace pcdb {

/// \brief Index structures over sets of completeness patterns (§4.4).
///
/// Pattern set minimization needs two primitives:
///   * subsumption checking — is a pattern p subsumed by some stored
///     pattern (HasSubsumer)?
///   * supersumption retrieval — which stored patterns does p subsume
///     (CollectSubsumed)?
/// The paper evaluates four structures: (A) plain lists, (B) hash tables,
/// (C) path indexes, and (D) discrimination trees; the latter two are
/// borrowed from term indexing in theorem provers [McCune '92].
///
/// Indexes have set semantics: inserting a duplicate pattern is a no-op.
/// All patterns in one index must share an arity.
///
/// Concurrency contract: implementations are thread-compatible, not
/// thread-safe — concurrent const queries on a quiescent index are
/// fine, but Insert/Remove require external exclusion. Minimization
/// builds a private index per call, so no index is ever shared across
/// threads. pcdb-analyze's `naked-mutex` checker keeps raw std::mutex
/// out of these classes; any future internal locking must go through
/// the annotated pcdb::Mutex so Clang Thread Safety Analysis can see
/// it.
class PatternIndex {
 public:
  virtual ~PatternIndex() = default;

  /// Inserts `p` unless an identical pattern is present.
  virtual void Insert(const Pattern& p) = 0;

  /// Removes `p` if present; returns whether it was found.
  virtual bool Remove(const Pattern& p) = 0;

  /// Subsumption check: is there a stored q that subsumes `p`? With
  /// `strict`, q == p does not count.
  virtual bool HasSubsumer(const Pattern& p, bool strict) const = 0;

  /// Supersumption retrieval: appends every stored q that `p` subsumes.
  /// With `strict`, q == p is excluded.
  virtual void CollectSubsumed(const Pattern& p, bool strict,
                               std::vector<Pattern>* out) const = 0;

  /// Appends every stored q that subsumes `p` (generalization retrieval;
  /// the enumerating counterpart of HasSubsumer). With `strict`, q == p
  /// is excluded.
  virtual void CollectSubsumers(const Pattern& p, bool strict,
                                std::vector<Pattern>* out) const = 0;

  /// Number of stored patterns.
  virtual size_t size() const = 0;

  /// All stored patterns (arbitrary order).
  virtual std::vector<Pattern> Contents() const = 0;

  /// Rough accounting of live heap bytes, maintained incrementally; used
  /// for the space comparison of Fig. 5. The estimates use a uniform
  /// cost model across structures (bytes per node/list entry/pattern) so
  /// that relative comparisons are meaningful.
  virtual size_t ApproxMemoryBytes() const = 0;

  /// The paper's structure letter: "A", "B", "C" or "D".
  virtual const char* name() const = 0;
};

/// \brief The four index structures of §4.4.
enum class PatternIndexKind {
  kLinearList,          // A: baseline, linear scans
  kHashTable,           // B: hashing + generalization enumeration
  kPathIndex,           // C: per-(position, symbol) posting lists
  kDiscriminationTree,  // D: trie treating '*' as an ordinary symbol
};

const char* PatternIndexKindName(PatternIndexKind kind);
const char* PatternIndexKindLetter(PatternIndexKind kind);

/// Creates an empty index of the requested kind for patterns of `arity`.
std::unique_ptr<PatternIndex> MakePatternIndex(PatternIndexKind kind,
                                               size_t arity);

}  // namespace pcdb

#endif  // PCDB_PATTERN_PATTERN_INDEX_H_
