#include "support/cli_args.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "support/ini.h"

namespace adaptbf {
namespace {

/// The number a target holds: T for T* and for std::optional<T>*.
template <typename T>
T number_of(T*);
template <typename T>
T number_of(std::optional<T>*);

/// What a bad number's error says the flag needs (see CliFlag::Target).
std::string expected_number(const CliFlag& flag, std::uint64_t max) {
  const std::string_view metavar = flag.metavar;
  if (metavar == "PORT")
    return "a port number (" + std::to_string(flag.min) + "-" +
           std::to_string(max) + ")";
  if (metavar == "SEC")
    return flag.min > 0 ? "a positive number of seconds"
                        : "a number of seconds";
  return flag.min > 0 ? "a positive integer" : "a non-negative integer";
}

/// Stores `value` (nullptr for a switch) through the flag's target;
/// returns the error text, empty on success.
std::string store(const CliFlag& flag, const char* value) {
  return std::visit(
      [&](auto* target) -> std::string {
        using T = std::remove_pointer_t<decltype(target)>;
        if constexpr (std::is_same_v<T, bool>) {
          *target = true;
        } else if constexpr (std::is_same_v<T, const char*>) {
          *target = value;
        } else {
          using Number = decltype(number_of(target));
          const std::uint64_t max = std::min<std::uint64_t>(
              flag.max, std::numeric_limits<Number>::max());
          std::uint64_t number = 0;
          if (!parse_u64(value, number) || number < flag.min || number > max)
            return std::string(flag.name) + " needs " +
                   expected_number(flag, max) + ", got '" + value + "'";
          *target = static_cast<Number>(number);
        }
        return {};
      },
      flag.target);
}

}  // namespace

CliArgs parse_cli(const CliMode& mode, std::span<char* const> args) {
  CliArgs out;
  for (std::size_t i = 0; i < args.size() && out.ok(); ++i) {
    const char* word = args[i];
    if (word[0] != '-') {
      if (out.operands.size() == mode.max_operands)
        out.error = std::string("unexpected argument '") + word + "'";
      else
        out.operands.push_back(word);
      continue;
    }
    const auto flag = std::find_if(
        mode.flags.begin(), mode.flags.end(),
        [&](const CliFlag& row) { return std::strcmp(row.name, word) == 0; });
    if (flag == mode.flags.end()) {
      out.error = std::string("unknown ") +
                  (mode.name != nullptr ? std::string(mode.name) + " " : "") +
                  "option '" + word + "'";
    } else if (std::holds_alternative<bool*>(flag->target)) {
      out.error = store(*flag, nullptr);
    } else if (i + 1 == args.size()) {
      out.error = std::string(word) + " needs a value";
    } else {
      out.error = store(*flag, args[++i]);
    }
  }
  return out;
}

std::string cli_synopsis(std::string_view program, const CliMode& mode) {
  constexpr std::size_t kWidth = 79;
  std::string out = "usage: ";
  out += program;
  if (mode.name != nullptr) (out += ' ') += mode.name;
  std::size_t line_start = 0;
  const auto append = [&](const std::string& word) {
    if (out.size() - line_start + 1 + word.size() > kWidth) {
      out += '\n';
      line_start = out.size();
      out += "         ";
    }
    (out += ' ') += word;
  };
  for (const CliFlag& flag : mode.flags)
    append(std::string("[") + flag.name +
           (flag.metavar != nullptr ? std::string(" ") + flag.metavar : "") +
           "]");
  if (*mode.operands != '\0') append(mode.operands);
  out += '\n';
  return out;
}

}  // namespace adaptbf
