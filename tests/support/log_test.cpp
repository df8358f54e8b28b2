// Logger config surface: the --log-level vocabulary, the line timestamp
// format (wall clock + monotonic elapsed) sweep_cli promises in
// docs/sweep_cli.md, and the macros' lazy argument evaluation.
#include "support/log.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace adaptbf {
namespace {

TEST(LogLevelName, ParsesTheCliVocabulary) {
  EXPECT_EQ(log_level_from_name("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_name("info"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_name("warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_name("error"), LogLevel::kError);
  EXPECT_EQ(log_level_from_name("off"), LogLevel::kOff);
}

TEST(LogLevelName, RejectsEverythingElse) {
  EXPECT_FALSE(log_level_from_name("").has_value());
  EXPECT_FALSE(log_level_from_name("WARN").has_value());  // Case-sensitive.
  EXPECT_FALSE(log_level_from_name("warning").has_value());
  EXPECT_FALSE(log_level_from_name("2").has_value());
}

TEST(LogLevelEnv, AppliesAndRejects) {
  const LogLevel before = log_level();
  ASSERT_EQ(setenv("ADAPTBF_LOG_LEVEL", "debug", 1), 0);
  EXPECT_TRUE(init_log_level_from_env());
  EXPECT_EQ(log_level(), LogLevel::kDebug);

  ASSERT_EQ(setenv("ADAPTBF_LOG_LEVEL", "loud", 1), 0);
  EXPECT_FALSE(init_log_level_from_env());
  EXPECT_EQ(log_level(), LogLevel::kDebug);  // Untouched on a bad name.

  ASSERT_EQ(unsetenv("ADAPTBF_LOG_LEVEL"), 0);
  EXPECT_TRUE(init_log_level_from_env());  // Unset: no-op, still true.
  EXPECT_EQ(log_level(), LogLevel::kDebug);

  set_log_level(before);
}

TEST(LogMacros, FilteredLineEvaluatesNoArgument) {
  const LogLevel before = log_level();
  int evaluated = 0;
  auto side_effect = [&evaluated] { return ++evaluated; };

  set_log_level(LogLevel::kWarn);
  ADAPTBF_LOG_DEBUG("log-test", "filtered %d", side_effect());
  ADAPTBF_LOG_INFO("log-test", "filtered %d", side_effect());
  EXPECT_EQ(evaluated, 0);

  set_log_level(LogLevel::kOff);
  ADAPTBF_LOG_ERROR("log-test", "filtered %d", side_effect());
  EXPECT_EQ(evaluated, 0);

  set_log_level(LogLevel::kDebug);
  ADAPTBF_LOG_DEBUG("log-test", "enabled %d", side_effect());
  EXPECT_EQ(evaluated, 1);

  set_log_level(before);
}

TEST(LogTimestamp, FormatsUtcWallClockPlusElapsed) {
  // 2026-08-07T12:34:56 UTC.
  EXPECT_EQ(format_log_timestamp(1786106096, 789, 1234),
            "2026-08-07T12:34:56.789Z +1234ms");
}

TEST(LogTimestamp, PadsSubsecondAndHandlesEpoch) {
  EXPECT_EQ(format_log_timestamp(0, 7, 0),
            "1970-01-01T00:00:00.007Z +0ms");
}

}  // namespace
}  // namespace adaptbf
