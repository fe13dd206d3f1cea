#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/annotated.h"
#include "relational/tuple.h"

/// \file
/// The benchmark's inputs: the base database every workload starts from
/// and the seeded op sequences the closed-loop clients send. The program
/// under test only ever sees the SQL text, rows and patterns produced
/// here — never a workload name.

namespace servebench {

/// The hash-partitioned fact table and the write-only side table.
inline constexpr char kFactTable[] = "ne";
inline constexpr char kStatusTable[] = "ne_status";

/// \brief One benchmark workload: its serving shape and op mix.
struct WorkloadSpec {
  std::string name;
  /// Served through a Coordinator over kFleetShards shard servers.
  bool fleet = false;
  /// Reads are never-repeating self-joins (every read misses the cache)
  /// and writes go to kStatusTable; otherwise reads are Zipf-drawn
  /// single-table selections and writes hit kFactTable.
  bool selfjoin = false;
  /// Shares of the op sequence; the rest are reads.
  double ingest_share = 0;
  double punctuate_share = 0;
};

inline constexpr uint32_t kFleetShards = 3;

/// The three workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief The fixed starting database.
struct BaseData {
  /// kFactTable (10,000 rows, 200 completeness patterns) and an empty
  /// kStatusTable.
  pcdb::AnnotatedDatabase db;
  /// kFactTable's attribute domains, in column order.
  std::vector<std::vector<pcdb::Value>> domains;
};

/// Builds the base database. It is the same on every run: the seed drives
/// only what a run sends (see MakeWorkload), because a seed-dependent base
/// table moves the mean self-join cost by tens of percent between seeds.
BaseData MakeBaseData();

enum class OpKind : uint8_t { kRead = 0, kIngest = 1, kPunctuate = 2 };

/// \brief One INGEST (a single row) or PUNCTUATE (a single pattern).
struct Write {
  std::string table;
  pcdb::Tuple row;                   ///< kIngest.
  std::vector<std::string> pattern;  ///< kPunctuate: display fields.
};

/// \brief One op of a sequence: a read of `queries[index]`, or a write
/// of `writes[index]`.
struct Op {
  OpKind kind = OpKind::kRead;
  uint32_t index = 0;
};

/// \brief Everything a run sends, derived from (workload, seed, seconds).
struct Workload {
  const WorkloadSpec* spec = nullptr;
  /// Distinct read SQL; a read op's index is its query id.
  std::vector<std::string> queries;
  std::vector<Write> writes;
  /// The measured sequence, consumed in order by both connections.
  std::vector<Op> ops;
  /// Writes already in the WAL when the servers restart (kFactTable
  /// ingests and punctuations, replayed by recovery).
  std::vector<Write> wal_tail;
};

/// Generates the run's inputs. `seconds` sizes the op sequence so that
/// the closed loop cannot run out of ops before the measured phase ends
/// (self-join reads, which may not repeat, are the exception: their
/// sequence ends after every distinct self-join was read once).
Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      const BaseData& base);

/// FNV-1a digest of the op sequence and WAL tail: every SQL text, row and
/// pattern in send order.
uint64_t OpDigest(const Workload& workload);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
