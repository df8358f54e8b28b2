#include "support/cli_args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace adaptbf {
namespace {

/// Owns the words of one command line: text targets and operands point
/// into it, so it must outlive their checks.
struct Argv {
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& word : words_) pointers_.push_back(word.data());
  }
  [[nodiscard]] CliArgs parse(const CliMode& mode) const {
    return parse_cli(mode, pointers_);
  }

 private:
  std::vector<std::string> words_;
  std::vector<char*> pointers_;
};

/// The shapes sweep_cli uses: a switch, text, a plain number, an optional
/// number, a port and a positive count.
struct Values {
  bool resume = false;
  const char* output = nullptr;
  std::uint32_t threads = 0;
  std::optional<std::uint32_t> listen;
  std::uint32_t lease = 16;
  std::uint64_t events = 0;
};

CliMode search_like(Values& v) {
  return {"search",
          {{"--threads", "N", &v.threads},
           {"--output", "JOURNAL.jsonl", &v.output},
           {"--resume", nullptr, &v.resume},
           {"--listen", "PORT", &v.listen, 0, 0xffff},
           {"--lease", "N", &v.lease, 1},
           {"--events", "N", &v.events, 1}},
          "<sweep.ini>",
          1};
}

TEST(CliArgs, FlagsAndOperandsInAnyOrder) {
  Values v;
  const CliMode mode = search_like(v);
  const Argv argv({"--threads", "4", "a.ini", "--resume", "--output",
                   "j.jsonl"});
  const CliArgs args = argv.parse(mode);
  ASSERT_TRUE(args.ok()) << args.error;
  ASSERT_EQ(args.operands.size(), 1u);
  EXPECT_STREQ(args.operands[0], "a.ini");
  EXPECT_EQ(v.threads, 4u);
  EXPECT_TRUE(v.resume);
  EXPECT_STREQ(v.output, "j.jsonl");
  EXPECT_FALSE(v.listen.has_value());
  EXPECT_EQ(v.lease, 16u);  // An absent flag keeps its default.
}

TEST(CliArgs, RepeatedFlagKeepsItsLastValue) {
  Values v;
  const CliMode mode = search_like(v);
  const Argv argv({"--threads", "2", "--output", "a", "x.ini", "--threads",
                   "8", "--output", "b"});
  const CliArgs args = argv.parse(mode);
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(v.threads, 8u);
  EXPECT_STREQ(v.output, "b");
}

TEST(CliArgs, NumbersAreStrictDecimal) {
  for (const char* bad : {"", "1x", "-1", "+1", " 5", "5 ", "0x10",
                          "4294967296", "nope"}) {
    Values v;
    const CliArgs args =
        Argv({"--threads", bad, "a.ini"}).parse(search_like(v));
    EXPECT_EQ(args.error, std::string("--threads needs a non-negative "
                                      "integer, got '") +
                              bad + "'")
        << "value '" << bad << "'";
    EXPECT_EQ(v.threads, 0u) << "a rejected value must not be stored";
  }
  Values v;
  EXPECT_TRUE(Argv({"--threads", "4294967295"}).parse(search_like(v)).ok());
  EXPECT_EQ(v.threads, 4294967295u);
}

TEST(CliArgs, RangesAreInclusive) {
  Values v;
  const CliMode mode = search_like(v);
  EXPECT_TRUE(Argv({"--listen", "0"}).parse(mode).ok());
  EXPECT_EQ(v.listen, 0u);
  EXPECT_TRUE(Argv({"--listen", "65535"}).parse(mode).ok());
  EXPECT_EQ(v.listen, 65535u);
  EXPECT_EQ(Argv({"--listen", "65536"}).parse(mode).error,
            "--listen needs a port number (0-65535), got '65536'");
  EXPECT_EQ(v.listen, 65535u);

  EXPECT_EQ(Argv({"--lease", "0"}).parse(mode).error,
            "--lease needs a positive integer, got '0'");
  EXPECT_TRUE(Argv({"--lease", "1"}).parse(mode).ok());
  EXPECT_EQ(v.lease, 1u);

  // A 64-bit target takes the full range.
  EXPECT_TRUE(Argv({"--events", "18446744073709551615"}).parse(mode).ok());
  EXPECT_EQ(v.events, 18446744073709551615u);
  EXPECT_EQ(Argv({"--events", "18446744073709551616"}).parse(mode).error,
            "--events needs a positive integer, got '18446744073709551616'");
}

TEST(CliArgs, SecondsReadAsSeconds) {
  std::uint32_t timeout = 30;
  std::uint32_t linger = 0;
  const CliMode mode{"serve",
                     {{"--lease-timeout", "SEC", &timeout, 1},
                      {"--linger", "SEC", &linger}}};
  EXPECT_EQ(Argv({"--lease-timeout", "0"}).parse(mode).error,
            "--lease-timeout needs a positive number of seconds, got '0'");
  EXPECT_EQ(Argv({"--linger", "x"}).parse(mode).error,
            "--linger needs a number of seconds, got 'x'");
}

TEST(CliArgs, SwitchNeverTakesTheNextWord) {
  Values v;
  const Argv argv({"--resume", "a.ini"});
  const CliArgs args = argv.parse(search_like(v));
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_TRUE(v.resume);
  ASSERT_EQ(args.operands.size(), 1u);
  EXPECT_STREQ(args.operands[0], "a.ini");
}

TEST(CliArgs, ValueFlagTakesTheNextWordWhateverItIs) {
  Values v;
  const Argv argv({"--output", "--resume", "a.ini"});
  const CliArgs args = argv.parse(search_like(v));
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_STREQ(v.output, "--resume");
  EXPECT_FALSE(v.resume);
}

TEST(CliArgs, MissingValueIsNamed) {
  Values v;
  const CliMode mode = search_like(v);
  EXPECT_EQ(Argv({"a.ini", "--listen"}).parse(mode).error,
            "--listen needs a value");
  EXPECT_EQ(Argv({"a.ini", "--output"}).parse(mode).error,
            "--output needs a value");
}

TEST(CliArgs, UnknownFlagNamesItsMode) {
  Values v;
  EXPECT_EQ(Argv({"--bogus", "a.ini"}).parse(search_like(v)).error,
            "unknown search option '--bogus'");
  const CliMode unnamed{nullptr, {{"--resume", nullptr, &v.resume}}};
  EXPECT_EQ(Argv({"--bogus"}).parse(unnamed).error,
            "unknown option '--bogus'");
  EXPECT_EQ(Argv({"-"}).parse(unnamed).error, "unknown option '-'");
}

TEST(CliArgs, OperandLimit) {
  Values v;
  const CliMode mode = search_like(v);
  const CliArgs extra = Argv({"a.ini", "b.ini"}).parse(mode);
  EXPECT_EQ(extra.error, "unexpected argument 'b.ini'");
  const CliArgs none = Argv({}).parse(mode);
  ASSERT_TRUE(none.ok()) << none.error;
  EXPECT_TRUE(none.operands.empty());

  CliMode unbounded = mode;
  unbounded.max_operands = 3;
  const CliArgs three = Argv({"a", "--resume", "b", "c"}).parse(unbounded);
  ASSERT_TRUE(three.ok()) << three.error;
  EXPECT_EQ(three.operands.size(), 3u);
}

TEST(CliArgs, SynopsisListsEveryFlagInTableOrder) {
  Values v;
  const CliMode mode = search_like(v);
  const std::string synopsis = cli_synopsis("sweep_cli", mode);
  EXPECT_EQ(synopsis,
            "usage: sweep_cli search [--threads N] [--output JOURNAL.jsonl] "
            "[--resume]\n"
            "          [--listen PORT] [--lease N] [--events N] <sweep.ini>\n");
  const CliMode unnamed{nullptr, {{"--dump", nullptr, &v.resume}},
                        "<scenario.ini>", 1};
  EXPECT_EQ(cli_synopsis("run_scenario", unnamed),
            "usage: run_scenario [--dump] <scenario.ini>\n");
}

TEST(CliArgs, SynopsisWrapsUnderEightyColumns) {
  std::uint32_t n = 0;
  const char* text = nullptr;
  bool on = false;
  // sweep_cli's search table, whose synopsis tooling_cli_usage greps.
  const CliMode search{"search",
                       {{"--threads", "N", &n},
                        {"--slo", "EXPR", &text},
                        {"--budget", "N", &n, 1},
                        {"--output", "JOURNAL.jsonl", &text},
                        {"--resume", nullptr, &on},
                        {"--listen", "PORT", &n, 0, 0xffff},
                        {"--lease", "N", &n, 1},
                        {"--lease-timeout", "SEC", &n, 1},
                        {"--linger", "SEC", &n}},
                       "<sweep.ini>",
                       1};
  const std::string synopsis = cli_synopsis("sweep_cli", search);
  EXPECT_NE(synopsis.find("search [--threads N] [--slo EXPR] [--budget N]"),
            std::string::npos)
      << synopsis;
  std::istringstream lines(synopsis);
  std::size_t count = 0;
  std::size_t at = 0;
  for (std::string line; std::getline(lines, line); ++count) {
    EXPECT_LT(line.size(), 80u) << line;
    if (count > 0) {
      EXPECT_EQ(line.rfind("          [", 0), 0u) << line;
    }
  }
  EXPECT_GT(count, 1u);
  // Every flag appears, in table order.
  for (const CliFlag& flag : search.flags) {
    const std::size_t found = synopsis.find(std::string("[") + flag.name);
    ASSERT_NE(found, std::string::npos) << flag.name;
    EXPECT_GT(found, at) << flag.name;
    at = found;
  }
}

}  // namespace
}  // namespace adaptbf
