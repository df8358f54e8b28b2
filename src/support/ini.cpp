#include "support/ini.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

namespace adaptbf {

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  while (true) {
    const std::size_t comma = text.find(',');
    const std::string_view item = trim(text.substr(0, comma));
    if (!item.empty()) items.emplace_back(item);
    if (comma == std::string_view::npos) return items;
    text.remove_prefix(comma + 1);
  }
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end && !text.empty();
}

bool parse_double(std::string_view text, double& out) {
  // from_chars, not strtod: strtod accepts "nan", "inf", and hex floats
  // ("0x1p4"), which let non-finite or surprising values into configs and
  // from there into exports. Configs are plain decimal/scientific only;
  // anything else — including "nan"/"inf" (from_chars parses them, the
  // finiteness check rejects them) and overflow to infinity ("1e999") —
  // fails the parse. `out` is untouched on failure.
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
    // from_chars would happily parse the '-' of "+-5"; one sign only.
    if (!text.empty() && (text.front() == '+' || text.front() == '-'))
      return false;
  }
  const char* begin = text.data();
  const char* end = begin + text.size();
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return false;
  out = value;
  return true;
}

std::optional<IniFile> IniFile::parse(std::string_view text,
                                      std::string* error) {
  IniFile file;
  std::string current_section;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  auto fail = [&](const std::string& message) -> std::optional<IniFile> {
    if (error != nullptr)
      *error = message + " (line " + std::to_string(line_number) + ")";
    return std::nullopt;
  };
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_number;

    // Strip comments (full-line or trailing).
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') return fail("unterminated section header");
      const std::string_view name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) return fail("empty section name");
      current_section = std::string(name);
      if (std::find(file.section_order_.begin(), file.section_order_.end(),
                    current_section) == file.section_order_.end())
        file.section_order_.push_back(current_section);
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return fail("expected 'key = value'");
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) return fail("empty key");
    if (current_section.empty()) return fail("key before any [section]");
    file.entries_.push_back(
        Entry{current_section, std::string(key), std::string(value)});
  }
  return file;
}

std::vector<std::string> IniFile::sections() const { return section_order_; }

bool IniFile::has_section(std::string_view section) const {
  return std::find(section_order_.begin(), section_order_.end(), section) !=
         section_order_.end();
}

std::optional<std::string> IniFile::get(std::string_view section,
                                        std::string_view key) const {
  for (const auto& entry : entries_)
    if (entry.section == section && entry.key == key) return entry.value;
  return std::nullopt;
}

std::vector<std::string> IniFile::get_all(std::string_view section,
                                          std::string_view key) const {
  std::vector<std::string> values;
  for (const auto& entry : entries_)
    if (entry.section == section && entry.key == key)
      values.push_back(entry.value);
  return values;
}

std::vector<std::pair<std::string, std::string>> IniFile::entries(
    std::string_view section) const {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& entry : entries_)
    if (entry.section == section) pairs.emplace_back(entry.key, entry.value);
  return pairs;
}

}  // namespace adaptbf
