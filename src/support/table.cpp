#include "support/table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/check.h"

namespace adaptbf {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ADAPTBF_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  ADAPTBF_CHECK_MSG(cells.size() == headers_.size(),
                    "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string(std::string_view title) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream out;
  if (!title.empty()) out << title << '\n';
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " ");
      out << row[c];
      out << std::string(width[c] - row[c].size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c)
    out << std::string(width[c] + 2, '-') << '|';
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

bool Table::write_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << to_csv();
  return static_cast<bool>(file);
}

namespace {

/// printf keeps the sign of a negative value that rounds to zero at the
/// requested precision ("-0", "-0.0%"); such a value prints as zero does.
/// `v > -1.0` leaves -inf and NaN, which print no digit either, alone.
std::string format_number(const char* pattern, int precision, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), pattern, precision, v);
  if (std::signbit(v) && v > -1.0 &&
      std::strpbrk(buf, "123456789") == nullptr)
    std::snprintf(buf, sizeof(buf), pattern, precision, 0.0);
  return buf;
}

}  // namespace

std::string fmt_fixed(double v, int precision) {
  return format_number("%.*f", precision, v);
}

std::string fmt_count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

std::string fmt_signed(double v, int precision) {
  return format_number("%+.*f", precision, v);
}

std::string fmt_percent(double fraction, int precision) {
  return format_number("%.*f%%", precision, fraction * 100.0);
}

}  // namespace adaptbf
