#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

/// \file
/// The benchmark's own spans. They wrap the benchmark's calls into the
/// program's public functions (the program's internal tracing stays
/// off), live in memory, and are written once, at exit, as Chrome
/// trace-event JSON.

namespace servebench {

/// \brief One finished span.
struct Span {
  std::string name;
  uint32_t tid = 0;
  /// 1-based; `parent` 0 marks a root span.
  uint32_t id = 0;
  uint32_t parent = 0;
  /// Microseconds since the recorder's origin.
  double start_us = 0;
  double dur_us = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// \brief Collects spans. Scopes nest on one thread (the replay);
/// AddInterval adds already-timed root spans from any finished phase.
class SpanRecorder {
 public:
  /// `origin_s` is the WallSeconds() value that maps to timestamp 0.
  explicit SpanRecorder(double origin_s) : origin_s_(origin_s) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// \brief RAII span; a child of the innermost open Scope. A null
  /// recorder makes every operation a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attaches a count to the span.
    void Arg(const char* key, double value);

   private:
    SpanRecorder* recorder_;
    size_t index_ = 0;
    double start_s_ = 0;
  };

  /// Records a finished root span [start_s, end_s] (WallSeconds).
  void AddInterval(const std::string& name, uint32_t tid, double start_s,
                   double end_s,
                   std::vector<std::pair<std::string, double>> args);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, index-aligned with spans(): its duration
  /// minus its direct children's durations.
  std::vector<double> SelfTimesUs() const;

  /// Writes Chrome trace-event JSON ("X" events, args included).
  [[nodiscard]] pcdb::Status WriteChromeJson(const std::string& path) const;

 private:
  static constexpr uint32_t kScopeTid = 0;

  double origin_s_;
  std::vector<Span> spans_;
  /// Indices into spans_ of the open Scopes, innermost last.
  std::vector<size_t> open_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
