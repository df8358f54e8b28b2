#include "support/table.h"

#include <gtest/gtest.h>

namespace adaptbf {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table table({"a", "bb"});
  table.add_row({"1", "2"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| a"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, TitleOnTop) {
  Table table({"x"});
  const std::string out = table.to_string("My Title");
  EXPECT_EQ(out.rfind("My Title", 0), 0u);
}

TEST(Table, ColumnsAlign) {
  Table table({"col", "x"});
  table.add_row({"verylongcell", "1"});
  table.add_row({"s", "2"});
  const std::string out = table.to_string();
  // Both data rows should have the same length after padding.
  const auto first_nl = out.find('\n');
  const auto second_nl = out.find('\n', first_nl + 1);
  const auto third_nl = out.find('\n', second_nl + 1);
  const auto fourth_nl = out.find('\n', third_nl + 1);
  EXPECT_EQ(third_nl - second_nl, fourth_nl - third_nl);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table table({"name"});
  table.add_row({"a,b"});
  table.add_row({"say \"hi\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvPlainCellsUnquoted) {
  Table table({"v"});
  table.add_row({"plain"});
  EXPECT_NE(table.to_csv().find("plain\n"), std::string::npos);
  EXPECT_EQ(table.to_csv().find("\"plain\""), std::string::npos);
}

TEST(Table, CountsRowsAndCols) {
  Table table({"a", "b", "c"});
  EXPECT_EQ(table.cols(), 3u);
  EXPECT_EQ(table.rows(), 0u);
  table.add_row({"1", "2", "3"});
  EXPECT_EQ(table.rows(), 1u);
}

TEST(Formatting, FixedPrecision) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(3.0, 0), "3");
  // A negative value that rounds to zero prints as zero does.
  EXPECT_EQ(fmt_fixed(-0.3, 0), "0");
  EXPECT_EQ(fmt_fixed(-0.5, 0), "0");  // printf rounds half to even.
  EXPECT_EQ(fmt_fixed(-0.0, 1), "0.0");
  EXPECT_EQ(fmt_fixed(-0.04, 1), "0.0");
  EXPECT_EQ(fmt_fixed(-0.6, 0), "-1");
}

TEST(Formatting, CountWithSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
}

TEST(Formatting, SignedAlwaysShowsSign) {
  EXPECT_EQ(fmt_signed(1.5, 1), "+1.5");
  EXPECT_EQ(fmt_signed(-2.25, 2), "-2.25");
  EXPECT_EQ(fmt_signed(0.0, 1), "+0.0");
  EXPECT_EQ(fmt_signed(-0.01, 1), "+0.0");
  EXPECT_EQ(fmt_signed(-0.0, 1), "+0.0");
  EXPECT_EQ(fmt_signed(-0.06, 1), "-0.1");
}

TEST(Formatting, Percent) {
  EXPECT_EQ(fmt_percent(0.5, 1), "50.0%");
  EXPECT_EQ(fmt_percent(0.333, 0), "33%");
  EXPECT_EQ(fmt_percent(-0.0001, 1), "0.0%");
  EXPECT_EQ(fmt_percent(-0.001, 1), "-0.1%");
}

}  // namespace
}  // namespace adaptbf
