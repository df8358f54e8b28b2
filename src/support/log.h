// Minimal leveled logger.
//
// The simulator itself never logs on hot paths; logging exists for the
// controllers (rule create/change/stop events mirror what the real AdapTBF
// daemon prints) and for harness progress. Global level, stderr sink.
//
// Every line carries a UTC wall-clock timestamp (when it happened, for
// correlating coordinator and worker logs across machines) plus the
// monotonic milliseconds since process start (how far into the run —
// immune to NTP steps):
//
//   2026-08-07T12:34:56.789Z +1234ms [WARN] dispatch: message
#pragma once

#include <cstdarg>
#include <cstdint>
#include <ctime>
#include <optional>
#include <string>
#include <string_view>

namespace adaptbf {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();
/// True when a message at `level` passes the threshold.
[[nodiscard]] bool log_enabled(LogLevel level);

/// "debug" | "info" | "warn" | "error" | "off" (the sweep_cli --log-level
/// vocabulary) -> level; nullopt on anything else.
[[nodiscard]] std::optional<LogLevel> log_level_from_name(
    std::string_view name);

/// Applies the ADAPTBF_LOG_LEVEL environment variable when set. Returns
/// false (level untouched) when the variable holds an unknown name, so
/// callers can warn; true when unset or applied.
bool init_log_level_from_env();

/// The line prefix, exposed pure so tests can pin the format:
/// "2026-08-07T12:34:56.789Z +1234ms" from a UTC wall time (seconds +
/// milliseconds) and the monotonic elapsed milliseconds.
[[nodiscard]] std::string format_log_timestamp(std::time_t wall_s,
                                               int wall_ms,
                                               std::uint64_t elapsed_ms);

/// printf-style logging. `tag` names the subsystem ("rule-daemon", ...).
void log_message(LogLevel level, std::string_view tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace adaptbf

// Each macro tests the level first, so a filtered line evaluates none of
// its arguments (a rule start's matcher string, say, is never built at
// the default warn level).
#define ADAPTBF_LOG_AT(level, tag, ...)                   \
  do {                                                     \
    if (::adaptbf::log_enabled(level))                     \
      ::adaptbf::log_message((level), (tag), __VA_ARGS__); \
  } while (false)
#define ADAPTBF_LOG_DEBUG(tag, ...) \
  ADAPTBF_LOG_AT(::adaptbf::LogLevel::kDebug, tag, __VA_ARGS__)
#define ADAPTBF_LOG_INFO(tag, ...) \
  ADAPTBF_LOG_AT(::adaptbf::LogLevel::kInfo, tag, __VA_ARGS__)
#define ADAPTBF_LOG_WARN(tag, ...) \
  ADAPTBF_LOG_AT(::adaptbf::LogLevel::kWarn, tag, __VA_ARGS__)
#define ADAPTBF_LOG_ERROR(tag, ...) \
  ADAPTBF_LOG_AT(::adaptbf::LogLevel::kError, tag, __VA_ARGS__)
