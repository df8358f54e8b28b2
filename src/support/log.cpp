#include "support/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace adaptbf {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};

/// Process-start anchor for the +<ms> elapsed column. Captured at first
/// use, which is close enough to main() for a human-readable offset.
std::chrono::steady_clock::time_point process_start() {
  static const auto kStart = std::chrono::steady_clock::now();
  return kStart;
}

/// Serializes sink writes. Concurrent sweep trials log from worker
/// threads; without this the prefix/body/newline fprintf calls of two
/// messages could interleave on stderr.
std::mutex g_sink_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= g_level.load(std::memory_order_relaxed);
}

std::optional<LogLevel> log_level_from_name(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

bool init_log_level_from_env() {
  // Read once during startup, before any worker threads exist.
  const char* env = std::getenv("ADAPTBF_LOG_LEVEL");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr || *env == '\0') return true;
  const auto level = log_level_from_name(env);
  if (!level) return false;
  set_log_level(*level);
  return true;
}

std::string format_log_timestamp(std::time_t wall_s, int wall_ms,
                                 std::uint64_t elapsed_ms) {
  std::tm utc{};
  gmtime_r(&wall_s, &utc);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer),
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ +%llums",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, wall_ms,
                static_cast<unsigned long long>(elapsed_ms));
  return buffer;
}

void log_message(LogLevel level, std::string_view tag, const char* fmt, ...) {
  if (!log_enabled(level)) return;

  // Format the whole line first so the sink sees one atomic write.
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int body_len = std::vsnprintf(nullptr, 0, fmt, args_copy);
  va_end(args_copy);
  std::string body(body_len > 0 ? static_cast<std::size_t>(body_len) : 0, '\0');
  if (body_len > 0) std::vsnprintf(body.data(), body.size() + 1, fmt, args);
  va_end(args);

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - process_start());
  const auto wall = std::chrono::system_clock::now();
  const std::time_t wall_s = std::chrono::system_clock::to_time_t(wall);
  const int wall_ms = static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          wall.time_since_epoch())
          .count() %
      1000);
  const std::string stamp = format_log_timestamp(
      wall_s, wall_ms, static_cast<std::uint64_t>(elapsed.count()));

  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "%s [%s] %.*s: %s\n", stamp.c_str(),
               level_name(level), static_cast<int>(tag.size()), tag.data(),
               body.c_str());
}

}  // namespace adaptbf
