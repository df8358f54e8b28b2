// Minimal INI reader for scenario files.
//
// Grammar: `[section]` headers, `key = value` pairs, `#`/`;` comments,
// blank lines ignored. Keys may repeat within a section (used for the
// `process =` lines of job descriptions); values keep inner whitespace and
// are trimmed at both ends. No escapes, no quoting — scenario files do not
// need them, and a parser this small is easy to audit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adaptbf {

class IniFile {
 public:
  /// Parses `text`. On failure returns nullopt and sets `error` (if given)
  /// to a message with the 1-based line number.
  static std::optional<IniFile> parse(std::string_view text,
                                      std::string* error = nullptr);

  /// Section names in file order (duplicates merged into the first).
  [[nodiscard]] std::vector<std::string> sections() const;
  [[nodiscard]] bool has_section(std::string_view section) const;

  /// First value of `key` in `section`; nullopt if absent.
  [[nodiscard]] std::optional<std::string> get(std::string_view section,
                                               std::string_view key) const;

  /// All values of `key` in `section`, in file order.
  [[nodiscard]] std::vector<std::string> get_all(std::string_view section,
                                                 std::string_view key) const;

  /// A section's key/value pairs in file order (with duplicates).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> entries(
      std::string_view section) const;

 private:
  struct Entry {
    std::string section;
    std::string key;
    std::string value;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> section_order_;
};

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Splits a comma list, trimming each item and dropping empty ones
/// ("1, 2,,3" -> "1", "2", "3").
[[nodiscard]] std::vector<std::string> split_list(std::string_view text);

/// Strict numeric parsers shared by the scenario/sweep loaders: the whole
/// string must be consumed, else false.
/// parse_double accepts plain decimal/scientific notation only and
/// rejects non-finite results: "nan", "inf", hex floats, and overflowing
/// exponents never reach a config value. On failure `out` is untouched.
[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out);
[[nodiscard]] bool parse_double(std::string_view text, double& out);

}  // namespace adaptbf
