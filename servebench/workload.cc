#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/random.h"
#include "workloads/network_elements.h"

namespace servebench {
namespace {

using pcdb::Pattern;
using pcdb::Rng;
using pcdb::Tuple;
using pcdb::Value;

/// The §4.3 table at half its usual 10,000 rows, with 200 patterns. At
/// 10,000 rows a self-join answer averages ~6,200 rows (1 MB), and the
/// client's decode of it (13 ms) outweighs the pattern step (11 ms); at
/// 5,000 the pattern step is the largest part of a self-join read.
constexpr size_t kFactRows = 5000;
constexpr size_t kBasePatterns = 200;
constexpr size_t kDrops = 300;
/// The generator's default seed: one fixed instance of the table, and of
/// the selections' popularity ranking. A seeded ranking moves mean read
/// cost by ~15% between seeds (which answers land on the hot ranks); the
/// seed draws the op sequence from the fixed popularity instead.
constexpr uint64_t kBaseSeed = 1;

/// Upper bound on the closed loop's op rate, used only to size the
/// sequence; several times what either connection pair reaches.
constexpr double kMaxOpsPerSecond = 10000;
/// Late rows in the WAL tail recovery replays at every restart (each
/// followed by the punctuations that restore what it retracted).
constexpr size_t kWalTailIngests = 1600;

std::vector<std::string> SelectionQueries() {
  // 53 + 18 + 91 = 162 distinct selections over the full domains.
  std::vector<std::string> out;
  const std::string head = std::string("SELECT * FROM ") + kFactTable + " WHERE ";
  for (int s = 0; s < 53; ++s) {
    out.push_back(head + "state='state_" + std::to_string(s) + "'");
  }
  for (int r = 0; r < 6; ++r) {
    for (int t = 0; t < 3; ++t) {
      out.push_back(head + "region_name='region_" + std::to_string(r) +
                    "' AND technology='tech_" + std::to_string(t) + "'");
    }
  }
  for (int v = 0; v < 7; ++v) {
    for (int c = 0; c < 13; ++c) {
      out.push_back(head + "vendor='vendor_" + std::to_string(v) +
                    "' AND sector='sector_" + std::to_string(c) + "'");
    }
  }
  return out;
}

/// Self-joins per cost stratum in the seeded order (see SelfJoinOrder).
constexpr size_t kStratumSize = 16;

/// Output rows of an equi-join whose sides have `a[k]` and `b[k]` rows
/// with join key k.
template <typename Key>
uint64_t JoinRows(const std::map<Key, uint64_t>& a,
                  const std::map<Key, uint64_t>& b) {
  uint64_t n = 0;
  for (const auto& [key, count] : a) {
    auto it = b.find(key);
    if (it != b.end()) n += count * it->second;
  }
  return n;
}

/// The 53*52 + 13*12 = 2,912 distinct self-joins (ordered constant pairs)
/// in a seeded order whose every prefix holds a near-even share of each
/// cost stratum: sorted by output rows over the base table, the joins are
/// cut into strata of kStratumSize, and round r takes one unused join of
/// every stratum, strata in seeded order. A run reads a prefix, so a
/// plain shuffle would let the seed pick a cheaper or dearer sample.
std::vector<std::string> SelfJoinOrder(const pcdb::Table& fact, Rng* rng) {
  // Dimension projection columns.
  constexpr size_t kVendor = 2, kSector = 4, kState = 5;
  using StateVendor = std::pair<std::string, std::string>;
  std::map<std::string, std::map<std::string, uint64_t>> by_state;  // -> vendor
  std::map<std::string, std::map<StateVendor, uint64_t>> by_sector;
  for (const Tuple& row : fact.rows()) {
    const std::string vendor = row[kVendor].ToString();
    const std::string state = row[kState].ToString();
    ++by_state[state][vendor];
    ++by_sector[row[kSector].ToString()][{state, vendor}];
  }
  std::vector<std::pair<uint64_t, std::string>> joins;
  const std::string from = std::string("SELECT * FROM ") + kFactTable + " a JOIN " +
                           kFactTable + " b ON ";
  for (int s1 = 0; s1 < 53; ++s1) {
    for (int s2 = 0; s2 < 53; ++s2) {
      if (s1 == s2) continue;
      const std::string a = "state_" + std::to_string(s1);
      const std::string b = "state_" + std::to_string(s2);
      joins.emplace_back(JoinRows(by_state[a], by_state[b]),
                         from + "a.vendor=b.vendor WHERE a.state='" + a +
                             "' AND b.state='" + b + "'");
    }
  }
  for (int c1 = 0; c1 < 13; ++c1) {
    for (int c2 = 0; c2 < 13; ++c2) {
      if (c1 == c2) continue;
      const std::string a = "sector_" + std::to_string(c1);
      const std::string b = "sector_" + std::to_string(c2);
      joins.emplace_back(JoinRows(by_sector[a], by_sector[b]),
                         from + "a.state=b.state WHERE a.vendor=b.vendor AND "
                                "a.sector='" + a + "' AND b.sector='" + b + "'");
    }
  }
  std::stable_sort(joins.begin(), joins.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::vector<std::string>> strata;
  for (size_t i = 0; i < joins.size(); ++i) {
    if (i % kStratumSize == 0) strata.emplace_back();
    strata.back().push_back(std::move(joins[i].second));
  }
  for (std::vector<std::string>& stratum : strata) rng->Shuffle(&stratum);
  std::vector<std::string> out;
  for (size_t round = 0; round < kStratumSize; ++round) {
    std::vector<size_t> order(strata.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng->Shuffle(&order);
    for (size_t i : order) {
      if (round < strata[i].size()) out.push_back(std::move(strata[i][round]));
    }
  }
  return out;
}

/// A new element with uniformly drawn attribute values; under the
/// retract policy it withdraws every promise it falls inside.
Write FactIngest(const BaseData& base, Rng* rng) {
  Write w;
  w.table = kFactTable;
  for (const std::vector<Value>& domain : base.domains) {
    w.row.push_back(domain[rng->UniformUint64(domain.size())]);
  }
  return w;
}

Write FactPunctuate(const Pattern& p) {
  Write w;
  w.table = kFactTable;
  for (size_t i = 0; i < p.arity(); ++i) {
    w.pattern.push_back(p.IsWildcard(i) ? "*" : p.value(i).ToString());
  }
  return w;
}

/// Re-asserts one of the base promises (a no-op unless it was retracted).
Write FactPunctuate(const BaseData& base, Rng* rng) {
  const pcdb::PatternSet& patterns = base.db.patterns(kFactTable);
  return FactPunctuate(patterns[rng->UniformUint64(patterns.size())]);
}

Write StatusIngest(Rng* rng) {
  static const char* const kStatuses[] = {"up", "down", "degraded"};
  Write w;
  w.table = kStatusTable;
  w.row = {Value("ne_" + std::to_string(rng->UniformUint64(kFactRows))),
           Value(kStatuses[rng->UniformUint64(3)])};
  return w;
}

void FnvBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ULL;
  }
}

void FnvString(uint64_t* h, const std::string& s) {
  FnvBytes(h, s.data(), s.size());
  FnvBytes(h, "\0", 1);
}

void FnvWrite(uint64_t* h, const Write& w) {
  FnvString(h, w.table);
  for (const Value& v : w.row) FnvString(h, v.ToString());
  for (const std::string& f : w.pattern) FnvString(h, f);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"dash_rw", /*fleet=*/false, /*selfjoin=*/false, 0.05, 0.05},
      {"selfjoin_cold", /*fleet=*/false, /*selfjoin=*/true, 0.3, 0.0},
      {"fleet_rw", /*fleet=*/true, /*selfjoin=*/false, 0.05, 0.05},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

BaseData MakeBaseData() {
  pcdb::NetworkElementsConfig config;
  config.num_rows = kFactRows;
  config.seed = kBaseSeed;
  const pcdb::NetworkElementsData data = pcdb::GenerateNetworkElements(config);
  const pcdb::PatternSet patterns =
      pcdb::bench::NetworkPatterns(data, kBasePatterns, kBaseSeed, kDrops);
  pcdb::Table fact = pcdb::bench::DimensionProjection(data);

  BaseData base;
  base.domains = data.dimension_domains;
  PCDB_CHECK(base.db.CreateTable(kFactTable, fact.schema()).ok());
  base.db.database().PutTable(kFactTable, std::move(fact));
  for (const Pattern& p : patterns) {
    PCDB_CHECK(base.db.AddPattern(kFactTable, p).ok());
  }
  PCDB_CHECK(base.db
                 .CreateTable(kStatusTable,
                              pcdb::Schema({{"name", pcdb::ValueType::kString},
                                            {"status", pcdb::ValueType::kString}}))
                 .ok());
  return base;
}

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      const BaseData& base) {
  Workload w;
  w.spec = &spec;
  Rng rng(seed);

  // Late rows, each followed by the re-punctuation of the promises it
  // withdraws: recovery replays retractions and punctuations, and the
  // recovered pattern set is the base set whatever the seed (a seeded
  // pattern set would move self-join cost by ~10% between seeds).
  for (size_t i = 0; i < kWalTailIngests; ++i) {
    const Write late = FactIngest(base, &rng);
    w.wal_tail.push_back(late);
    for (const Pattern& p : base.db.patterns(kFactTable)) {
      if (p.SubsumesTuple(late.row)) w.wal_tail.push_back(FactPunctuate(p));
    }
  }

  auto next_write = [&](double u) {
    Op op;
    op.kind = u < spec.ingest_share ? OpKind::kIngest : OpKind::kPunctuate;
    op.index = static_cast<uint32_t>(w.writes.size());
    if (spec.selfjoin) {
      w.writes.push_back(StatusIngest(&rng));
    } else {
      w.writes.push_back(op.kind == OpKind::kIngest ? FactIngest(base, &rng)
                                                    : FactPunctuate(base, &rng));
    }
    return op;
  };
  const double write_share = spec.ingest_share + spec.punctuate_share;

  if (spec.selfjoin) {
    // Every self-join exactly once, in seeded order; writes interleave.
    w.queries = SelfJoinOrder(**base.db.database().GetTable(kFactTable), &rng);
    uint32_t next_read = 0;
    while (next_read < w.queries.size()) {
      const double u = rng.UniformDouble();
      if (u < write_share) {
        w.ops.push_back(next_write(u));
      } else {
        w.ops.push_back(Op{OpKind::kRead, next_read++});
      }
    }
    return w;
  }

  // Zipf(1.0) popularity over a fixed ranking of the 162 selections.
  w.queries = SelectionQueries();
  std::vector<uint32_t> by_rank(w.queries.size());
  for (uint32_t i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
  Rng ranking(kBaseSeed);
  ranking.Shuffle(&by_rank);
  std::vector<double> cdf(by_rank.size());
  double total = 0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  const size_t n = static_cast<size_t>(std::ceil(seconds * kMaxOpsPerSecond));
  w.ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.UniformDouble();
    if (u < write_share) {
      w.ops.push_back(next_write(u));
      continue;
    }
    const double x = rng.UniformDouble() * total;
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin(),
        cdf.size() - 1);
    w.ops.push_back(Op{OpKind::kRead, by_rank[rank]});
  }
  return w;
}

uint64_t OpDigest(const Workload& workload) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Write& write : workload.wal_tail) FnvWrite(&h, write);
  for (const Op& op : workload.ops) {
    const uint8_t kind = static_cast<uint8_t>(op.kind);
    FnvBytes(&h, &kind, 1);
    if (op.kind == OpKind::kRead) {
      FnvString(&h, workload.queries[op.index]);
    } else {
      FnvWrite(&h, workload.writes[op.index]);
    }
  }
  return h;
}

}  // namespace servebench
