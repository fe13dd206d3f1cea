#include "trace.h"

#include <cstdio>
#include <fstream>

#include "stats.h"

namespace servebench {

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = name;
  span.tid = kScopeTid;
  span.id = static_cast<uint32_t>(recorder_->spans_.size() + 1);
  span.parent = recorder_->open_.empty()
                    ? 0
                    : recorder_->spans_[recorder_->open_.back()].id;
  index_ = recorder_->spans_.size();
  recorder_->spans_.push_back(std::move(span));
  recorder_->open_.push_back(index_);
  start_s_ = WallSeconds();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const double end_s = WallSeconds();
  Span& span = recorder_->spans_[index_];
  span.start_us = (start_s_ - recorder_->origin_s_) * 1e6;
  span.dur_us = (end_s - start_s_) * 1e6;
  recorder_->open_.pop_back();
}

void SpanRecorder::Scope::Arg(const char* key, double value) {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].args.emplace_back(key, value);
}

void SpanRecorder::AddInterval(
    const std::string& name, uint32_t tid, double start_s, double end_s,
    std::vector<std::pair<std::string, double>> args) {
  Span span;
  span.name = name;
  span.tid = tid;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.start_us = (start_s - origin_s_) * 1e6;
  span.dur_us = (end_s - start_s) * 1e6;
  span.args = std::move(args);
  spans_.push_back(std::move(span));
}

std::vector<double> SpanRecorder::SelfTimesUs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us;
  for (const Span& span : spans_) {
    if (span.parent != 0) self[span.parent - 1] -= span.dur_us;
  }
  return self;
}

pcdb::Status SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return pcdb::Status::Internal("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, s.start_us, s.dur_us);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << buf
        << ",\"args\":{\"span_id\":" << s.id << ",\"parent_id\":" << s.parent;
    for (const auto& [key, value] : s.args) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << ",\"" << key << "\":" << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return pcdb::Status::Internal("short write to trace " + path);
  return pcdb::Status::OK();
}

}  // namespace servebench
