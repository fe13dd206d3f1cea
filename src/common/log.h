#ifndef PCDB_COMMON_LOG_H_
#define PCDB_COMMON_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>

/// \file
/// Leveled structured logging: one JSON object per line, written to
/// stderr (or a test-installed sink). Usage:
///
///   LogWarn("slow query")
///       .Str("sql", sql)
///       .Num("conn", conn_id)
///       .Float("elapsed_ms", millis);
///
/// emits (one line):
///
///   {"ts_us":1723...,"level":"warn","msg":"slow query","sql":"...",
///    "conn":7,"elapsed_ms":123.4}
///
/// The event is emitted when the temporary LogEvent is destroyed at the
/// end of the full expression. Events below the minimum level (env
/// PCDB_LOG_LEVEL: debug|info|warn|error|off, default info) build no
/// string and emit nothing.
///
/// This is the only sanctioned way to write diagnostics from src/
/// (pcdb-analyze's `naked-output` checker enforces it); stdout stays
/// reserved for program output (query answers, the pcdbd listening
/// line, metrics dumps).

namespace pcdb {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Current minimum level; events below it are dropped without
/// formatting. Initialised once from PCDB_LOG_LEVEL.
LogLevel MinLogLevel();
void SetMinLogLevel(LogLevel level);

/// Sink for completed lines (without trailing newline). nullptr
/// restores the default stderr sink. Tests install a capturing sink.
using LogSink = void (*)(const std::string& line);
void SetLogSink(LogSink sink);

/// \brief One structured log event, built field-by-field and emitted on
/// destruction. Keys must be plain identifiers (no escaping is applied
/// to keys); values are JSON-escaped.
class LogEvent {
 public:
  LogEvent(LogLevel level, std::string_view msg);
  ~LogEvent();

  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& Str(const char* key, std::string_view value);
  LogEvent& Num(const char* key, int64_t value);
  LogEvent& Unum(const char* key, uint64_t value);
  LogEvent& Float(const char* key, double value);
  LogEvent& Bool(const char* key, bool value);

 private:
  bool enabled_;
  std::string line_;
};

inline LogEvent LogDebug(std::string_view msg) {
  return LogEvent(LogLevel::kDebug, msg);
}
inline LogEvent LogInfo(std::string_view msg) {
  return LogEvent(LogLevel::kInfo, msg);
}
inline LogEvent LogWarn(std::string_view msg) {
  return LogEvent(LogLevel::kWarn, msg);
}
inline LogEvent LogError(std::string_view msg) {
  return LogEvent(LogLevel::kError, msg);
}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Exposed for the tracer's metadata fields and for tests.
std::string JsonEscape(std::string_view s);

}  // namespace pcdb

#endif  // PCDB_COMMON_LOG_H_
