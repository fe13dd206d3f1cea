#include "stats.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace servebench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

CpuTicks ReadCpuTicks() {
  // cpu user nice system idle iowait irq softirq steal guest guest_nice
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

double StealShare(const CpuTicks& begin, const CpuTicks& end) {
  if (end.total <= begin.total) return 0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

pcdb::Result<PhaseTimes> RunPhases(const Phases& phases) {
  if (phases.setup_repeats < 1) {
    return pcdb::Status::InvalidArgument("setup_repeats must be >= 1");
  }
  PCDB_RETURN_NOT_OK(phases.prepare());
  PhaseTimes times;
  for (int i = 0; i < phases.setup_repeats; ++i) {
    if (i > 0) phases.teardown();
    PhaseClock clock;
    PCDB_RETURN_NOT_OK(phases.restart());
    times.setups.push_back(clock.Elapsed());
  }
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const Interval& s : times.setups) {
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
  }
  times.setup = Interval{Quantile(wall, 0.5), Quantile(cpu, 0.5)};
  PhaseClock clock;
  PCDB_RETURN_NOT_OK(phases.measure());
  times.measured = clock.Elapsed();
  return times;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

pcdb::Result<double> TailQuantile(std::vector<double> values, double q) {
  // The share beyond the q-quantile, (1 - q) * n, must hold enough
  // samples: p95 needs n >= 200.
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  if (beyond + 1e-9 < static_cast<double>(kMinTailSamples)) {
    return pcdb::Status::OutOfRange(
        "p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
        " of " + std::to_string(values.size()) + " samples has fewer than " +
        std::to_string(kMinTailSamples) + " beyond it; measure longer");
  }
  return Quantile(std::move(values), q);
}

pcdb::Result<PhaseSummary> Summarize(const std::vector<OpRecord>& records,
                                     const Interval& measured) {
  PhaseSummary s;
  std::vector<double> reads;
  std::vector<double> writes;
  for (const OpRecord& r : records) {
    ++s.attempted;
    if (!r.ok) {
      ++s.failed;
      continue;
    }
    (r.kind == OpKind::kRead ? reads : writes).push_back(r.millis());
  }
  s.reads = reads.size();
  s.writes = writes.size();
  const size_t completed = s.reads + s.writes;
  if (completed == 0 || measured.wall_s <= 0) {
    return pcdb::Status::OutOfRange("no op completed");
  }
  s.read_p50_ms = Quantile(reads, 0.5);
  PCDB_ASSIGN_OR_RETURN(s.read_p95_ms, TailQuantile(reads, 0.95));
  s.write_p50_ms = Quantile(writes, 0.5);
  PCDB_ASSIGN_OR_RETURN(s.write_p95_ms, TailQuantile(writes, 0.95));
  s.read_qps = static_cast<double>(s.reads) / measured.wall_s;
  s.cpu_ms_per_op = measured.cpu_s * 1000.0 / static_cast<double>(completed);
  return s;
}

}  // namespace servebench
