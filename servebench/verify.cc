#include "verify.h"

#include <map>
#include <optional>

#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "pattern/feed.h"
#include "pattern/minimize.h"
#include "pattern/shard_route.h"
#include "server/protocol.h"
#include "sql/planner.h"

namespace servebench {
namespace {

using pcdb::AnnotatedDatabase;
using pcdb::AnnotatedTable;
using pcdb::Status;

/// SplitMix64 finaliser: spreads a hash before it is summed, so that a
/// multiset sum does not cancel structured inputs.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Applies one logged write to `db` the way a server at `placement`
/// does (server/server.cc ApplyWriteOp, re-derived here as the
/// independent reference).
Status ApplyLogged(AnnotatedDatabase* db, const pcdb::WalRecord& record,
                   const Placement& placement) {
  if (record.type == pcdb::WalRecordType::kPunctuate) {
    PCDB_ASSIGN_OR_RETURN(pcdb::PunctuateRequest request,
                          pcdb::DecodePunctuatePayload(record.payload));
    const bool hashed = placement.num_shards > 1 &&
                        placement.hashed.count(request.table) > 0;
    pcdb::FeedManager feed(db);
    for (const std::vector<std::string>& fields : request.patterns) {
      if (hashed) {
        PCDB_ASSIGN_OR_RETURN(const pcdb::Table* table,
                              db->database().GetTable(request.table));
        PCDB_ASSIGN_OR_RETURN(pcdb::Pattern p,
                              pcdb::Pattern::Parse(fields, table->schema()));
        if (pcdb::ShardForPattern(p, placement.num_shards) !=
            placement.shard_id) {
          continue;
        }
      }
      PCDB_RETURN_NOT_OK(feed.Punctuate(request.table, fields));
    }
    return Status::OK();
  }
  PCDB_ASSIGN_OR_RETURN(pcdb::IngestRequest request,
                        pcdb::DecodeIngestPayload(record.payload));
  const bool retract =
      request.policy == pcdb::IngestRequest::kPolicyRetractPatterns;
  if (!retract) {
    return Status::Unimplemented("the benchmark only sends retract-policy ingests");
  }
  const bool hashed = placement.num_shards > 1 &&
                      placement.hashed.count(request.table) > 0;
  pcdb::FeedManager feed(db, pcdb::FeedViolationPolicy::kRetractPatterns);
  for (pcdb::Tuple& row : request.rows) {
    if (hashed &&
        pcdb::ShardForRow(row, placement.num_shards) != placement.shard_id) {
      PCDB_RETURN_NOT_OK(feed.RetractViolated(request.table, row));
    } else {
      PCDB_RETURN_NOT_OK(feed.Ingest(request.table, std::move(row)));
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t RowsDigest(const pcdb::Table& rows) {
  uint64_t sum = 0;
  for (const pcdb::Tuple& row : rows.rows()) {
    size_t h = 0;
    for (const pcdb::Value& v : row) h = pcdb::HashCombine(h, v.Hash());
    sum += Mix(h);
  }
  return Mix(sum ^ Mix(rows.num_rows()));
}

uint64_t AnswerDigest(const AnnotatedTable& answer) {
  uint64_t patterns = 0;
  for (const pcdb::Pattern& p : answer.patterns) patterns += Mix(p.Hash());
  return Mix(RowsDigest(answer.data) ^ Mix(patterns) ^
             Mix(answer.patterns.size() * 2 + (answer.degraded ? 1 : 0)));
}

bool PatternsSound(const pcdb::PatternSet& served,
                   const pcdb::PatternSet& reference) {
  for (const pcdb::Pattern& p : served) {
    if (!reference.AnySubsumes(p)) return false;
  }
  return true;
}

pcdb::Result<AnnotatedTable> ReferenceAnswer(const std::string& sql,
                                             const AnnotatedDatabase& db,
                                             pcdb::AnnotatedEvalInfo* info) {
  PCDB_ASSIGN_OR_RETURN(pcdb::ExprPtr plan, pcdb::PlanSql(sql, db.database()));
  return pcdb::EvaluateAnnotated(*plan, db, pcdb::AnnotatedEvalOptions{},
                                 pcdb::ExecContext::Unbounded(), info);
}

pcdb::Result<AnnotatedDatabase> RebuildFromDurableState(
    const std::string& dir, const Placement& placement) {
  PCDB_ASSIGN_OR_RETURN(std::optional<pcdb::CheckpointState> checkpoint,
                        pcdb::LoadCheckpoint(dir + "/CHECKPOINT"));
  if (!checkpoint.has_value()) {
    return Status::NotFound("no checkpoint in " + dir);
  }
  AnnotatedDatabase db = std::move(checkpoint->db);
  // tenant -> writer -> last applied seq, seeded from the checkpoint.
  std::map<std::string, std::map<uint64_t, uint64_t>> last_seq;
  for (const auto& [tenant, writers] : checkpoint->writers) {
    for (const auto& [writer, state] : writers) {
      last_seq[tenant][writer] = state.last_seq;
    }
  }
  PCDB_ASSIGN_OR_RETURN(
      pcdb::WalReplayStats stats,
      pcdb::ReplayWal(dir, checkpoint->last_lsn,
                      [&](const pcdb::WalRecord& record) -> Status {
                        if (record.writer_id != 0 && record.seq != 0) {
                          uint64_t& last =
                              last_seq[record.tenant][record.writer_id];
                          if (record.seq <= last) return Status::OK();
                          last = record.seq;
                        }
                        return ApplyLogged(&db, record, placement);
                      }));
  if (stats.torn_tail) {
    return Status::Internal("torn WAL tail in " + dir + ": " +
                            stats.tail_detail);
  }
  return db;
}

AnnotatedTable MergeShardAnswers(const std::vector<AnnotatedTable>& parts) {
  AnnotatedTable merged;
  if (parts.empty()) return merged;
  merged.data = pcdb::Table(parts[0].data.schema());
  pcdb::PatternSet unioned;
  for (const AnnotatedTable& part : parts) {
    for (const pcdb::Tuple& row : part.data.rows()) {
      merged.data.AppendUnchecked(row);
    }
    for (const pcdb::Pattern& p : part.patterns) unioned.Add(p);
    merged.degraded = merged.degraded || part.degraded;
  }
  merged.patterns = pcdb::Minimize(unioned);
  return merged;
}

}  // namespace servebench
