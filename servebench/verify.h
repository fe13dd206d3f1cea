#ifndef SERVEBENCH_VERIFY_H_
#define SERVEBENCH_VERIFY_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "pattern/annotated.h"
#include "pattern/annotated_eval.h"

/// \file
/// Answer checking: order-normalised answer digests, the in-process
/// reference evaluation, the rebuild of a server's state from its own
/// checkpoint and WAL, and the coordinator's merge recomputed from shard
/// answers.

namespace servebench {

/// Order-normalised digest of an answer's rows, as a multiset (a sum of
/// mixed per-row hashes, plus the count).
uint64_t RowsDigest(const pcdb::Table& rows);
/// Order-normalised digest of an answer: RowsDigest, the patterns as a
/// set, and the degraded flag. Equal answers have equal digests in any
/// order.
uint64_t AnswerDigest(const pcdb::AnnotatedTable& answer);

/// True when every served pattern is subsumed by a reference pattern:
/// the served annotation claims no completeness the reference lacks.
bool PatternsSound(const pcdb::PatternSet& served,
                   const pcdb::PatternSet& reference);

/// The in-process reference: PlanSql + EvaluateAnnotated at the
/// server's defaults.
pcdb::Result<pcdb::AnnotatedTable> ReferenceAnswer(
    const std::string& sql, const pcdb::AnnotatedDatabase& db,
    pcdb::AnnotatedEvalInfo* info = nullptr);

/// \brief Which slice of the data a server holds (default: all of it).
struct Placement {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  std::set<std::string> hashed;
};

/// Rebuilds a server's state from the checkpoint and WAL in `dir` with
/// LoadCheckpoint, ReplayWal and FeedManager, applying each logged write
/// the way a server at `placement` stores it: rows a shard does not own
/// only retract the promises they violate, and patterns a shard does not
/// own are skipped. Retried (writer_id, seq) pairs apply once.
pcdb::Result<pcdb::AnnotatedDatabase> RebuildFromDurableState(
    const std::string& dir, const Placement& placement);

/// The coordinator's broadcast merge, recomputed: rows unioned, patterns
/// Minimize()d over the union of the shard answers' patterns.
pcdb::AnnotatedTable MergeShardAnswers(
    const std::vector<pcdb::AnnotatedTable>& parts);

}  // namespace servebench

#endif  // SERVEBENCH_VERIFY_H_
