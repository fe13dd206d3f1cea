#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/annotated_eval.h"
#include "workloads/maintenance_example.h"

namespace pcdb {
namespace {

/// The tracer and the failpoint registry are process-global: every test
/// flips tracing on against a clean slate and restores the previous
/// state (the obs CI stage runs this binary with PCDB_TRACE=1, so the
/// prior state is not always "off").
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Tracer::enabled();
    Failpoints::Global().Clear();
    Tracer::Global().SetEnabled(true);
    Tracer::Global().Reset();
    baseline_open_ = Tracer::Global().OpenSpanCount();
  }
  void TearDown() override {
    Tracer::Global().Reset();
    Tracer::Global().SetEnabled(was_enabled_);
    Failpoints::Global().Clear();
  }

  static const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                                     const std::string& name) {
    for (const TraceEvent& event : events) {
      if (event.name != nullptr && name == event.name) return &event;
    }
    return nullptr;
  }

  bool was_enabled_ = false;
  int64_t baseline_open_ = 0;
};

TEST_F(TraceTest, DisabledSpanRecordsNothing) {
  Tracer::Global().SetEnabled(false);
  {
    PCDB_TRACE_SPAN(span, "inert");
    span.Arg("rows", 42);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(Tracer::Global().OpenSpanCount(), baseline_open_);
  }
  EXPECT_TRUE(Tracer::Global().SnapshotEvents().empty());
}

TEST_F(TraceTest, SpansNestAndShareOneTraceId) {
  {
    PCDB_TRACE_SPAN(outer, "outer");
    PCDB_TRACE_SPAN(inner, "inner");
    inner.Arg("rows", 7);
    EXPECT_EQ(Tracer::Global().OpenSpanCount(), baseline_open_ + 2);
  }
  EXPECT_EQ(Tracer::Global().OpenSpanCount(), baseline_open_);

  const std::vector<TraceEvent> events = Tracer::Global().SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = FindEvent(events, "outer");
  const TraceEvent* inner = FindEvent(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_NE(outer->trace_id, 0u);
  EXPECT_EQ(inner->trace_id, outer->trace_id);
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
  EXPECT_NE(inner->span_id, outer->span_id);
  // The inner span lies inside the outer one on the timeline.
  EXPECT_GE(inner->start_micros, outer->start_micros);
  EXPECT_LE(inner->start_micros + inner->duration_micros,
            outer->start_micros + outer->duration_micros);
  ASSERT_EQ(inner->num_args, 1u);
  EXPECT_STREQ(inner->arg_keys[0], "rows");
  EXPECT_EQ(inner->arg_values[0], 7u);
}

TEST_F(TraceTest, ArgsBeyondTheCapAreIgnored) {
  {
    PCDB_TRACE_SPAN(span, "many_args");
    for (uint64_t i = 0; i < TraceEvent::kMaxArgs + 3; ++i) {
      span.Arg("k", i);
    }
  }
  const std::vector<TraceEvent> events = Tracer::Global().SnapshotEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num_args, TraceEvent::kMaxArgs);
}

TEST_F(TraceTest, ThreadPoolPropagatesTheTraceContext) {
  uint64_t outer_trace = 0;
  uint64_t outer_span = 0;
  {
    PCDB_TRACE_SPAN(outer, "submit_site");
    outer_trace = CurrentTraceContext().trace_id;
    outer_span = CurrentTraceContext().span_id;
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) {
      pool.Submit([] { PCDB_TRACE_SPAN(task, "pool_task"); });
    }
    pool.Wait();
  }
  ASSERT_NE(outer_trace, 0u);
  const std::vector<TraceEvent> events = Tracer::Global().SnapshotEvents();
  size_t tasks = 0;
  for (const TraceEvent& event : events) {
    if (std::string("pool_task") != event.name) continue;
    ++tasks;
    // The worker thread adopted the submitter's context: same trace,
    // parented to the span that was open at Submit time.
    EXPECT_EQ(event.trace_id, outer_trace);
    EXPECT_EQ(event.parent_span_id, outer_span);
  }
  EXPECT_EQ(tasks, 4u);
}

TEST_F(TraceTest, RecordIntervalParentsUnderTheCurrentSpan) {
  {
    PCDB_TRACE_SPAN(outer, "request");
    const uint64_t now = Tracer::Global().NowMicros();
    Tracer::Global().RecordInterval("queue_wait", now > 50 ? now - 50 : 0,
                                    50);
  }
  const std::vector<TraceEvent> events = Tracer::Global().SnapshotEvents();
  const TraceEvent* outer = FindEvent(events, "request");
  const TraceEvent* wait = FindEvent(events, "queue_wait");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->trace_id, outer->trace_id);
  EXPECT_EQ(wait->parent_span_id, outer->span_id);
  EXPECT_EQ(wait->duration_micros, 50u);
}

TEST_F(TraceTest, SpanBalanceSurvivesTheFaultMatrix) {
  // Every compiled-in failpoint site, armed with error and with throw,
  // against the traced annotated evaluation. No early return or
  // exception unwinding may leak an open span — RAII spans must close on
  // every path. (Sites outside the evaluator simply never fire here;
  // their runs double as clean-path balance checks.)
  const uint64_t trips_before = EngineMetrics().failpoint_trips->Value();
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  for (const std::string& site : Failpoints::AllSites()) {
    for (int action = 0; action < 2; ++action) {
      Failpoints::Global().Activate(
          site, action == 0 ? FailpointSpec::Error(StatusCode::kOutOfRange)
                            : FailpointSpec::Throw());
      // The status is the fault matrix's concern (fault_injection_test);
      // here only the balance matters.
      static_cast<void>(EvaluateAnnotated(MakeHardwareWarningsQuery(), adb));
      Failpoints::Global().Clear();
      EXPECT_EQ(Tracer::Global().OpenSpanCount(), baseline_open_)
          << site << (action == 0 ? " error" : " throw");
    }
  }
  // The matrix tripped evaluator failpoints, and EngineMetrics()'s
  // observer counted them into the process-wide registry.
  EXPECT_GT(EngineMetrics().failpoint_trips->Value(), trips_before);
  EXPECT_EQ(GlobalMetrics().CounterValue("engine_failpoint_trips"),
            EngineMetrics().failpoint_trips->Value());
}

TEST_F(TraceTest, TracedEvaluationEmitsEngineSpans) {
  AnnotatedDatabase adb = MakeMaintenanceDatabase();
  ASSERT_TRUE(
      EvaluateAnnotated(MakeHardwareWarningsQuery(), adb).ok());
  const std::vector<TraceEvent> events = Tracer::Global().SnapshotEvents();
  EXPECT_NE(FindEvent(events, "evaluate_annotated"), nullptr);
  EXPECT_NE(FindEvent(events, "pattern.scan"), nullptr);
  EXPECT_NE(FindEvent(events, "pattern.join"), nullptr);
  bool minimized = false;
  for (const TraceEvent& event : events) {
    if (std::string(event.name).rfind("minimize.", 0) == 0) {
      minimized = true;
    }
  }
  EXPECT_TRUE(minimized);
  // Every engine span belongs to the root's trace.
  const TraceEvent* root = FindEvent(events, "evaluate_annotated");
  ASSERT_NE(root, nullptr);
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.trace_id, root->trace_id) << event.name;
  }
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormed) {
  {
    PCDB_TRACE_SPAN(outer, "outer");
    PCDB_TRACE_SPAN(inner, "inner \"quoted\"");
    inner.Arg("rows", 3);
  }
  const std::string json = Tracer::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pcdb\""), std::string::npos);
  EXPECT_NE(json.find("inner \\\"quoted\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rows\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos) << json;
  // Structural sanity: braces and brackets balance, nothing nests
  // negatively. (tools/check_trace.py does the full validation on real
  // dump files in the obs CI stage.)
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(TraceTest, WriteChromeTraceFileRoundTrips) {
  {
    PCDB_TRACE_SPAN(span, "to_disk");
  }
  const std::string path = ::testing::TempDir() + "pcdb_trace_test.json";
  ASSERT_TRUE(Tracer::Global().WriteChromeTraceFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, Tracer::Global().ToChromeTraceJson());
}

TEST_F(TraceTest, BufferCapDropsAreCountedNotSilent) {
  TraceEvent event;
  event.name = "flood";
  for (size_t i = 0; i < Tracer::kMaxEventsPerThread + 5; ++i) {
    Tracer::Global().Record(event);
  }
  EXPECT_EQ(Tracer::Global().DroppedEvents(), 5u);
  EXPECT_NE(Tracer::Global().ToChromeTraceJson().find(
                "\"dropped_events\":5"),
            std::string::npos);
  Tracer::Global().Reset();
  EXPECT_EQ(Tracer::Global().DroppedEvents(), 0u);
  EXPECT_TRUE(Tracer::Global().SnapshotEvents().empty());
}

// ---------------------------------------------------------------------------
// Structured logging (common/log.h).

Mutex g_log_mu;
std::string g_log_capture PCDB_GUARDED_BY(g_log_mu);

void CaptureLogLine(const std::string& line) {
  MutexLock lock(&g_log_mu);
  g_log_capture += line;
  g_log_capture += '\n';
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = MinLogLevel();
    SetMinLogLevel(LogLevel::kDebug);
    {
      MutexLock lock(&g_log_mu);
      g_log_capture.clear();
    }
    SetLogSink(&CaptureLogLine);
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetMinLogLevel(saved_level_);
  }

  static std::string Captured() {
    MutexLock lock(&g_log_mu);
    return g_log_capture;
  }

  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_F(LogTest, FieldsRenderAsOneJsonLine) {
  LogWarn("slow query")
      .Str("sql", "SELECT \"x\"\n")
      .Num("delta", -3)
      .Unum("conn", 7)
      .Float("ms", 1.5)
      .Bool("degraded", true);
  const std::string out = Captured();
  EXPECT_NE(out.find("\"level\":\"warn\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"msg\":\"slow query\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"sql\":\"SELECT \\\"x\\\"\\n\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"delta\":-3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"conn\":7"), std::string::npos) << out;
  EXPECT_NE(out.find("\"ms\":1.5"), std::string::npos) << out;
  EXPECT_NE(out.find("\"degraded\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"ts_us\":"), std::string::npos) << out;
  // One event, one line.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

TEST_F(LogTest, EventsBelowTheMinimumLevelEmitNothing) {
  SetMinLogLevel(LogLevel::kError);
  LogDebug("d").Num("n", 1);
  LogInfo("i");
  LogWarn("w");
  EXPECT_EQ(Captured(), "");
  LogError("e");
  EXPECT_NE(Captured().find("\"level\":\"error\""), std::string::npos);
}

TEST_F(LogTest, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\n\r\ty"), "x\\n\\r\\ty");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

}  // namespace
}  // namespace pcdb
