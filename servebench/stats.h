#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "workload.h"

/// \file
/// Run accounting: the phase clock that separates untimed preparation,
/// timed set-up and the measured phase, the per-op records of the
/// measured phase, and the rules that turn them into end-to-end metrics.

namespace servebench {

/// Steady wall clock, seconds.
double WallSeconds();
/// CPU time of the whole process (user + system, every thread), seconds.
double ProcessCpuSeconds();
/// The process's high-water resident set (VmHWM), MB.
double PeakRssMb();

/// Host-wide CPU time counters from the first line of /proc/stat.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Share of host CPU time stolen by the hypervisor between two readings
/// (0 when the counters are unavailable).
double StealShare(const CpuTicks& begin, const CpuTicks& end);

/// \brief Wall and CPU time of one interval.
struct Interval {
  double wall_s = 0;
  double cpu_s = 0;
};

/// \brief Measures one interval from construction onwards.
class PhaseClock {
 public:
  Interval Elapsed() const {
    return Interval{WallSeconds() - wall_, ProcessCpuSeconds() - cpu_};
  }

 private:
  double wall_ = WallSeconds();
  double cpu_ = ProcessCpuSeconds();
};

/// \brief The phases of one run, in order.
struct Phases {
  /// Untimed: data generation, op sequence, durable state on disk.
  std::function<pcdb::Status()> prepare;
  /// Timed as set-up: restart the servers from durable state (and fill
  /// the cache). Runs `setup_repeats` times; the last restart serves the
  /// measured phase.
  std::function<pcdb::Status()> restart;
  /// Untimed: stop what `restart` started, between set-up repeats.
  std::function<void()> teardown;
  /// The measured closed loop.
  std::function<pcdb::Status()> measure;
  int setup_repeats = 1;
};

/// \brief What RunPhases timed.
struct PhaseTimes {
  /// Every set-up repeat, in order.
  std::vector<Interval> setups;
  /// Median wall and median CPU over `setups`.
  Interval setup;
  Interval measured;
};

/// Runs prepare, the set-up repeats and the measured phase, timing only
/// the set-up restarts and the measured phase.
pcdb::Result<PhaseTimes> RunPhases(const Phases& phases);

/// \brief One client call of the measured phase.
struct OpRecord {
  /// Position in Workload::ops.
  uint32_t seq = 0;
  OpKind kind = OpKind::kRead;
  uint8_t conn = 0;
  /// WallSeconds at send and at the last answer frame / ack.
  double start_s = 0;
  double end_s = 0;
  /// Answered without an error or shed, and (where verified) correctly.
  bool ok = false;
  /// The answer trailer's cache_hit flag (reads).
  bool cache_hit = false;
  /// Order-normalised answer digest, kept where the answer is verified.
  uint64_t answer_hash = 0;

  double millis() const { return (end_s - start_s) * 1000.0; }
};

/// The reported tail percentile needs at least this many samples beyond
/// it; with fewer, the run fails instead of reporting a guess.
inline constexpr size_t kMinTailSamples = 10;

/// Linearly interpolated q-quantile (0 <= q <= 1) of an unsorted sample;
/// 0 for an empty one.
double Quantile(std::vector<double> values, double q);

/// Quantile() that fails unless the share beyond the quantile,
/// (1 - q) * n, holds at least kMinTailSamples samples.
pcdb::Result<double> TailQuantile(std::vector<double> values, double q);

/// \brief End-to-end figures of the measured phase.
struct PhaseSummary {
  size_t attempted = 0;
  size_t failed = 0;
  size_t reads = 0;   ///< Completed reads.
  size_t writes = 0;  ///< Completed writes.
  double read_p50_ms = 0;
  double read_p95_ms = 0;
  double write_p50_ms = 0;
  double write_p95_ms = 0;
  double read_qps = 0;
  double cpu_ms_per_op = 0;
};

/// Summarises the measured phase. A failed op (error, shed or wrong
/// answer) counts in `failed` and adds no latency sample; CPU is the
/// measured interval's only and is divided by completed ops only.
pcdb::Result<PhaseSummary> Summarize(const std::vector<OpRecord>& records,
                                     const Interval& measured);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
