#ifndef PCDB_COMMON_FAILPOINT_H_
#define PCDB_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace pcdb {

/// \brief Fault-injection framework: named failpoints compiled into
/// long-running paths (CSV load, evaluator operators, minimization inner
/// loops, thread-pool dispatch) that tests and CI can arm to return an
/// error Status, throw, or sleep at the marked site.
///
/// The inactive fast path is a single relaxed atomic load, so failpoints
/// are safe to leave in hot loops. Activation is programmatic
/// (`Failpoints::Global().Activate(...)`) or via the PCDB_FAILPOINTS
/// environment variable, parsed once on first use:
///
///   PCDB_FAILPOINTS="minimize.pattern=error;pool.dispatch=sleep(2)"
///   PCDB_FAILPOINTS="csv.record=once:throw;eval.operator=every(3):error(timeout)"
///   PCDB_FAILPOINTS="wal.fsync=prob(0.25,42):error(resource_exhausted)"
///
/// Grammar per entry (';'-separated):  name '=' [trigger ':'] action
///   trigger:  once | every(N) | prob(P,SEED)        (default: always)
///   action:   error | error(CODE) | throw | sleep(MILLIS)
///   CODE:     internal | timeout | cancelled | resource_exhausted |
///             invalid_argument | not_found | out_of_range | unavailable
///
/// Triggers are deterministic: `once` fires on the first hit only,
/// `every(N)` on hits N, 2N, 3N, ..., and `prob(P,SEED)` draws from a
/// per-failpoint PRNG seeded with SEED, so a given hit sequence always
/// fires the same way.

/// Exception thrown by `throw`-action failpoints. Deliberately a
/// std::runtime_error subclass: it exercises the same catch paths that
/// guard against real exceptions (bad_alloc, ...) in workers.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& name)
      : std::runtime_error("failpoint '" + name + "' threw") {}
};

/// What an armed failpoint does when its trigger fires.
enum class FailpointAction {
  kError,  ///< Hit() returns a non-OK Status with `code`.
  kThrow,  ///< Hit() throws FailpointError.
  kSleep,  ///< Hit() sleeps `sleep_millis`, then returns OK.
};

/// When an armed failpoint fires.
enum class FailpointTrigger {
  kAlways,
  kOnce,
  kEveryNth,
  kProbability,
};

/// \brief Full configuration of one armed failpoint.
struct FailpointSpec {
  FailpointAction action = FailpointAction::kError;
  /// Status code for kError actions.
  StatusCode code = StatusCode::kInternal;
  /// Sleep duration for kSleep actions.
  double sleep_millis = 1;
  FailpointTrigger trigger = FailpointTrigger::kAlways;
  /// Period for kEveryNth (fires on hits N, 2N, ...).
  uint64_t every_nth = 1;
  /// Fire probability in [0, 1] for kProbability.
  double probability = 1.0;
  /// PRNG seed for kProbability (deterministic across runs).
  uint64_t seed = 0;

  static FailpointSpec Error(StatusCode code = StatusCode::kInternal) {
    FailpointSpec spec;
    spec.action = FailpointAction::kError;
    spec.code = code;
    return spec;
  }
  static FailpointSpec Throw() {
    FailpointSpec spec;
    spec.action = FailpointAction::kThrow;
    return spec;
  }
  static FailpointSpec Sleep(double millis) {
    FailpointSpec spec;
    spec.action = FailpointAction::kSleep;
    spec.sleep_millis = millis;
    return spec;
  }
  /// Returns a copy that fires on the first hit only.
  FailpointSpec Once() const {
    FailpointSpec spec = *this;
    spec.trigger = FailpointTrigger::kOnce;
    return spec;
  }
  /// Returns a copy that fires on every Nth hit.
  FailpointSpec EveryNth(uint64_t n) const {
    FailpointSpec spec = *this;
    spec.trigger = FailpointTrigger::kEveryNth;
    spec.every_nth = n == 0 ? 1 : n;
    return spec;
  }
  /// Returns a copy that fires with probability `p` from a PRNG seeded
  /// with `seed`.
  FailpointSpec WithProbability(double p, uint64_t seed) const {
    FailpointSpec spec = *this;
    spec.trigger = FailpointTrigger::kProbability;
    spec.probability = p;
    spec.seed = seed;
    return spec;
  }
};

/// \brief Thread-safe registry of armed failpoints.
///
/// Library code marks sites with PCDB_FAILPOINT(name) (Status-returning
/// contexts) or explicit Hit() calls; names of all compiled-in sites are
/// listed in AllSites() so tests can enumerate the full matrix.
class Failpoints {
 public:
  /// The process-wide registry. PCDB_FAILPOINTS is parsed on first call;
  /// a malformed value is reported to stderr and ignored (robustness
  /// tooling must not take the process down).
  static Failpoints& Global();

  /// Arms `name` with `spec` (rearming replaces the old spec and resets
  /// trigger state).
  void Activate(const std::string& name, const FailpointSpec& spec)
      PCDB_EXCLUDES(mu_);

  /// Disarms `name` (no-op if not armed).
  void Deactivate(const std::string& name) PCDB_EXCLUDES(mu_);

  /// Disarms everything.
  void Clear() PCDB_EXCLUDES(mu_);

  /// True if `name` is currently armed (regardless of trigger state).
  bool IsActive(const std::string& name) const PCDB_EXCLUDES(mu_);

  /// True if any failpoint is armed — a single relaxed atomic load, so
  /// hot paths can gate behavioural (non-Status) faults like
  /// "server.read.short" on it without taking the registry lock.
  bool AnyActive() const {
    return active_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Total times an armed `name` fired (its action ran). 0 if never
  /// armed. For test assertions.
  uint64_t FireCount(const std::string& name) const PCDB_EXCLUDES(mu_);

  /// The failpoint site `name` was reached. Returns OK when the point is
  /// unarmed or its trigger does not fire; otherwise performs the armed
  /// action (non-OK Status, FailpointError throw, or sleep-then-OK).
  /// Inline fast path: one relaxed atomic load when nothing is armed.
  [[nodiscard]] Status Hit(const char* name) PCDB_EXCLUDES(mu_) {
    if (active_count_.load(std::memory_order_relaxed) == 0) {
      return Status::OK();
    }
    return HitSlow(name);
  }

  /// Parses one "name=spec" entry (see the grammar above) and arms it.
  [[nodiscard]] Status ActivateFromSpec(const std::string& entry) PCDB_EXCLUDES(mu_);

  /// Parses a full ';'-separated PCDB_FAILPOINTS value and arms every
  /// entry; stops at (and reports) the first malformed entry.
  [[nodiscard]] Status ActivateFromString(const std::string& spec) PCDB_EXCLUDES(mu_);

  /// Canonical list of every failpoint site compiled into the library.
  /// Tests iterate this to guarantee full matrix coverage.
  static const std::vector<std::string>& AllSites();

  /// Observer invoked (outside the registry lock) every time an armed
  /// failpoint's action runs, regardless of action kind. Installed by
  /// the observability layer to count trips in the global metrics
  /// registry without common/ depending on obs/. A plain function
  /// pointer so installation is lock-free; nullptr uninstalls.
  using TripObserver = void (*)();
  static void SetTripObserver(TripObserver observer);

 private:
  Failpoints();

  struct Armed {
    FailpointSpec spec;
    uint64_t hits = 0;   // times the site was reached while armed
    uint64_t fires = 0;  // times the action actually ran
    uint64_t rng = 0;    // splitmix64 state for kProbability
  };

  /// True if the trigger fires for this hit; advances trigger state.
  static bool ShouldFire(Armed* armed);

  /// Out-of-line tail of Hit() for the armed case.
  [[nodiscard]] Status HitSlow(const char* name) PCDB_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Armed> armed_ PCDB_GUARDED_BY(mu_);
  /// Retained fire counts of disarmed failpoints, so FireCount stays
  /// meaningful after Deactivate/Clear.
  std::map<std::string, uint64_t> fired_ PCDB_GUARDED_BY(mu_);
  /// Armed-failpoint count for the lock-free fast path.
  std::atomic<size_t> active_count_{0};
};

/// Marks a failpoint site inside a Status- or Result-returning function:
/// propagates the injected error when the armed trigger fires, and is a
/// single relaxed atomic load when nothing is armed.
#define PCDB_FAILPOINT(name) \
  PCDB_RETURN_NOT_OK(::pcdb::Failpoints::Global().Hit(name))

}  // namespace pcdb

#endif  // PCDB_COMMON_FAILPOINT_H_
