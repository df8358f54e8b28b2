#include "support/ini.h"

#include <gtest/gtest.h>

namespace adaptbf {
namespace {

TEST(Ini, ParsesSectionsAndKeys) {
  const auto file = IniFile::parse(
      "[alpha]\n"
      "key = value\n"
      "[beta]\n"
      "x = 1\n");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->sections(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(file->get("alpha", "key"), "value");
  EXPECT_EQ(file->get("beta", "x"), "1");
  EXPECT_FALSE(file->get("alpha", "missing").has_value());
  EXPECT_TRUE(file->has_section("alpha"));
  EXPECT_FALSE(file->has_section("gamma"));
}

TEST(Ini, TrimsWhitespaceAndKeepsInnerSpaces) {
  const auto file = IniFile::parse("[s]\n  name   =   hello world  \n");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->get("s", "name"), "hello world");
}

TEST(Ini, CommentsIgnored) {
  const auto file = IniFile::parse(
      "# full line\n"
      "[s]          ; section comment\n"
      "a = 1        # trailing\n"
      "; another\n"
      "b = 2\n");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->get("s", "a"), "1");
  EXPECT_EQ(file->get("s", "b"), "2");
}

TEST(Ini, RepeatedKeysCollectInOrder) {
  const auto file = IniFile::parse(
      "[job]\n"
      "process = first\n"
      "process = second\n"
      "process = third\n");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->get("job", "process"), "first");
  EXPECT_EQ(file->get_all("job", "process"),
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(Ini, ErrorsCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(IniFile::parse("[s]\nno equals here\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(IniFile::parse("[unterminated\n", &error).has_value());
  EXPECT_FALSE(IniFile::parse("[]\n", &error).has_value());
  EXPECT_FALSE(IniFile::parse("orphan = 1\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(Ini, EmptyFileIsValid) {
  const auto file = IniFile::parse("");
  ASSERT_TRUE(file.has_value());
  EXPECT_TRUE(file->sections().empty());
}

TEST(Ini, EntriesKeepFileOrderAndDuplicates) {
  const auto file =
      IniFile::parse("[s]\na = 1\nb = 2\n[t]\nc = 4\n[s]\na = 3\n");
  ASSERT_TRUE(file.has_value());
  using Pair = std::pair<std::string, std::string>;
  EXPECT_EQ(file->entries("s"),
            (std::vector<Pair>{{"a", "1"}, {"b", "2"}, {"a", "3"}}));
  EXPECT_TRUE(file->entries("missing").empty());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(ParseDouble, AcceptsPlainDecimalAndScientific) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("1.5", v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(parse_double("-2e3", v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_TRUE(parse_double("+0.25", v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(parse_double(".5", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(ParseDouble, RejectsNonFiniteHexAndGarbage) {
  // Regression: the strtod-based parser accepted nan/inf/hex, letting
  // non-finite values into configs (and from there into exports).
  double v = 123.0;
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "0x1p4",
                          "0x10", "1e999", "-1e999", "", "+", "1.5x",
                          "++1", "+-1", "+nan"}) {
    EXPECT_FALSE(parse_double(bad, v)) << "accepted '" << bad << "'";
    EXPECT_DOUBLE_EQ(v, 123.0) << "out modified by '" << bad << "'";
  }
}

}  // namespace
}  // namespace adaptbf
