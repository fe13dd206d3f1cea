#include "common/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/log.h"
#include "common/result.h"

namespace pcdb {
namespace {

/// splitmix64: tiny, deterministic, seedable — good enough for fire/no-
/// fire draws and dependency-free.
uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Maps a draw to [0, 1).
double UnitDouble(uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

Result<StatusCode> ParseStatusCode(const std::string& name) {
  if (name == "internal") return StatusCode::kInternal;
  if (name == "timeout") return StatusCode::kTimeout;
  if (name == "cancelled") return StatusCode::kCancelled;
  if (name == "resource_exhausted") return StatusCode::kResourceExhausted;
  if (name == "invalid_argument") return StatusCode::kInvalidArgument;
  if (name == "not_found") return StatusCode::kNotFound;
  if (name == "out_of_range") return StatusCode::kOutOfRange;
  if (name == "unavailable") return StatusCode::kUnavailable;
  return Status::ParseError("unknown status code '" + name + "'");
}

/// Parses "head(args)" into head and args; args empty when there are no
/// parentheses. Returns false on unbalanced parentheses.
bool SplitCall(const std::string& text, std::string* head,
               std::string* args) {
  const size_t open = text.find('(');
  if (open == std::string::npos) {
    *head = text;
    args->clear();
    return true;
  }
  if (text.back() != ')') return false;
  *head = text.substr(0, open);
  *args = text.substr(open + 1, text.size() - open - 2);
  return true;
}

Result<double> ParseDouble(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    return Status::ParseError("not a number: '" + text + "'");
  }
  return v;
}

/// Release/acquire: the observer typically closes over state (a metric
/// pointer) initialised just before installation; the acquire load in
/// HitSlow makes that state visible to whichever thread trips first.
std::atomic<Failpoints::TripObserver> g_trip_observer{nullptr};

}  // namespace

void Failpoints::SetTripObserver(TripObserver observer) {
  g_trip_observer.store(observer, std::memory_order_release);
}

Failpoints::Failpoints() {
  const char* env = std::getenv("PCDB_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  Status status = ActivateFromString(env);
  if (!status.ok()) {
    // Never take the process down over a malformed injection spec; the
    // entries parsed before the error stay armed.
    LogWarn("PCDB_FAILPOINTS ignored entry").Str("error", status.ToString());
  }
}

Failpoints& Failpoints::Global() {
  static Failpoints* instance = new Failpoints();
  return *instance;
}

void Failpoints::Activate(const std::string& name,
                          const FailpointSpec& spec) {
  MutexLock lock(&mu_);
  Armed& armed = armed_[name];
  armed.spec = spec;
  armed.hits = 0;
  armed.fires = 0;
  armed.rng = spec.seed;
  active_count_.store(armed_.size(), std::memory_order_relaxed);
}

void Failpoints::Deactivate(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = armed_.find(name);
  if (it == armed_.end()) return;
  fired_[name] += it->second.fires;
  armed_.erase(it);
  active_count_.store(armed_.size(), std::memory_order_relaxed);
}

void Failpoints::Clear() {
  MutexLock lock(&mu_);
  for (const auto& [name, armed] : armed_) fired_[name] += armed.fires;
  armed_.clear();
  active_count_.store(0, std::memory_order_relaxed);
}

bool Failpoints::IsActive(const std::string& name) const {
  MutexLock lock(&mu_);
  return armed_.count(name) != 0;
}

uint64_t Failpoints::FireCount(const std::string& name) const {
  MutexLock lock(&mu_);
  uint64_t count = 0;
  auto it = fired_.find(name);
  if (it != fired_.end()) count = it->second;
  auto armed = armed_.find(name);
  if (armed != armed_.end()) count += armed->second.fires;
  return count;
}

bool Failpoints::ShouldFire(Armed* armed) {
  ++armed->hits;
  switch (armed->spec.trigger) {
    case FailpointTrigger::kAlways:
      return true;
    case FailpointTrigger::kOnce:
      return armed->hits == 1;
    case FailpointTrigger::kEveryNth:
      return armed->hits % armed->spec.every_nth == 0;
    case FailpointTrigger::kProbability:
      return UnitDouble(SplitMix64Next(&armed->rng)) <
             armed->spec.probability;
  }
  return false;
}

Status Failpoints::HitSlow(const char* name) {
  FailpointSpec spec;
  {
    MutexLock lock(&mu_);
    auto it = armed_.find(name);
    if (it == armed_.end()) return Status::OK();
    if (!ShouldFire(&it->second)) return Status::OK();
    ++it->second.fires;
    spec = it->second.spec;
  }
  if (TripObserver observer =
          g_trip_observer.load(std::memory_order_acquire)) {
    observer();
  }
  // Act outside the lock: sleeping or throwing while holding mu_ would
  // stall or skip other sites.
  switch (spec.action) {
    case FailpointAction::kError:
      return Status(spec.code,
                    "failpoint '" + std::string(name) + "' fired");
    case FailpointAction::kThrow:
      throw FailpointError(name);
    case FailpointAction::kSleep:
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(spec.sleep_millis));
      return Status::OK();
  }
  return Status::OK();
}

Status Failpoints::ActivateFromSpec(const std::string& entry) {
  const size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::ParseError("failpoint entry '" + entry +
                              "' is not name=spec");
  }
  const std::string name = entry.substr(0, eq);
  std::string rest = entry.substr(eq + 1);

  FailpointSpec spec;
  // Optional trigger prefix "trigger:action". The ':' separator never
  // appears inside trigger/action arguments.
  const size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    std::string head;
    std::string args;
    if (!SplitCall(rest.substr(0, colon), &head, &args)) {
      return Status::ParseError("malformed trigger in '" + entry + "'");
    }
    if (head == "once") {
      spec.trigger = FailpointTrigger::kOnce;
    } else if (head == "every") {
      spec.trigger = FailpointTrigger::kEveryNth;
      PCDB_ASSIGN_OR_RETURN(double n, ParseDouble(args));
      if (n < 1) {
        return Status::ParseError("every(N) needs N >= 1 in '" + entry +
                                  "'");
      }
      spec.every_nth = static_cast<uint64_t>(n);
    } else if (head == "prob") {
      spec.trigger = FailpointTrigger::kProbability;
      const size_t comma = args.find(',');
      if (comma == std::string::npos) {
        return Status::ParseError("prob(P,SEED) needs two arguments in '" +
                                  entry + "'");
      }
      PCDB_ASSIGN_OR_RETURN(double p, ParseDouble(args.substr(0, comma)));
      PCDB_ASSIGN_OR_RETURN(double seed,
                            ParseDouble(args.substr(comma + 1)));
      spec.probability = p;
      spec.seed = static_cast<uint64_t>(seed);
    } else {
      return Status::ParseError("unknown trigger '" + head + "' in '" +
                                entry + "'");
    }
    rest = rest.substr(colon + 1);
  }

  std::string head;
  std::string args;
  if (!SplitCall(rest, &head, &args)) {
    return Status::ParseError("malformed action in '" + entry + "'");
  }
  if (head == "error") {
    spec.action = FailpointAction::kError;
    if (!args.empty()) {
      PCDB_ASSIGN_OR_RETURN(spec.code, ParseStatusCode(args));
    }
  } else if (head == "throw") {
    spec.action = FailpointAction::kThrow;
  } else if (head == "sleep") {
    spec.action = FailpointAction::kSleep;
    if (!args.empty()) {
      PCDB_ASSIGN_OR_RETURN(spec.sleep_millis, ParseDouble(args));
    }
  } else {
    return Status::ParseError("unknown action '" + head + "' in '" +
                              entry + "'");
  }
  Activate(name, spec);
  return Status::OK();
}

Status Failpoints::ActivateFromString(const std::string& spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    if (!entry.empty()) {
      PCDB_RETURN_NOT_OK(ActivateFromSpec(entry));
    }
    pos = end + 1;
  }
  return Status::OK();
}

const std::vector<std::string>& Failpoints::AllSites() {
  // Canonical list of every PCDB_FAILPOINT / Hit site compiled into the
  // library. Tests iterate this to cover the full injection matrix; keep
  // it in sync when instrumenting new code (fault_injection_test fails
  // if an armed listed site never fires on the covering workload).
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      "csv.read",          // relational/csv.cc: ReadCsvString entry
      "csv.record",        // relational/csv.cc: per parsed record
      "eval.operator",     // relational/evaluator.cc: ApplyRootOperator
      "eval.join.probe",   // relational/evaluator.cc: hash-join probe loop
      "minimize.pattern",  // pattern/minimize.cc: per-pattern inner loop
      "annotated.operator",  // pattern/annotated_eval.cc: per plan node
      "pool.dispatch",     // common/thread_pool.cc: before each task runs
      "server.accept",     // server/net_socket.cc: Listener::Accept
      "server.read",       // server/net_socket.cc: Socket::Recv
      "server.read.short",   // server/net_socket.cc: clamps reads to 1 byte
      "server.decode",     // server/protocol.cc: per decoded frame
      "server.write",      // server/net_socket.cc: Socket::Send
      "server.ingest",     // server/server.cc: per applied write op
      "wal.open",          // durability/wal.cc: WalWriter::Open entry
      "wal.append",        // durability/wal.cc: AppendBatch entry
      "wal.append.short",  // durability/wal.cc: persists half the batch
      "wal.corrupt",       // durability/wal.cc: flips a byte pre-write
      "wal.fsync",         // durability/wal.cc: before fsync(2)
      "checkpoint.write",  // durability/checkpoint.cc: before tmp write
      "checkpoint.rename",  // durability/checkpoint.cc: before rename(2)
      "recovery.record",   // durability/wal.cc: per replayed record
  };
  return *sites;
}

}  // namespace pcdb
