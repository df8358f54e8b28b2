// One command-line grammar for every binary.
//
// A mode (`sweep_cli serve`, or a binary's only mode) declares its flags
// in one table. A row names the flag, its metavar ("N", "PATH"), where its
// value goes and, for a number, the inclusive range the value must fall
// in. The grammar, the same everywhere:
//
//   - `--flag VALUE` and bare switches, in any order among the operands;
//   - a repeated flag keeps its last value;
//   - a value flag takes the next word, whatever it is;
//   - numbers are strict decimal: no sign, no whitespace, no suffix, so
//     an empty or garbage value (an unset $SLURM_PROCID given to
//     --shard-index, say) errors instead of coercing to 0;
//   - any other word that starts with '-' is an unknown flag.
//
// The same table prints the mode's synopsis, so the usage text cannot
// drift from what is parsed. The parser prints nothing: a failure comes
// back as error text for the binary to print above the synopsis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace adaptbf {

struct CliFlag {
  /// A bool target makes the flag a switch. Every other target takes the
  /// next word: text as is, numbers range-checked against [min, max] and
  /// what the target type can hold. An optional number stays empty until
  /// the flag is given. A bad number's error words what the flag needs
  /// from its metavar and range: "a port number (0-65535)" for PORT,
  /// "a positive number of seconds" for SEC with min 1, and "a positive
  /// integer" or "a non-negative integer" otherwise.
  using Target = std::variant<bool*, const char**, std::uint32_t*,
                              std::optional<std::uint32_t>*, std::uint64_t*>;

  const char* name = nullptr;     ///< "--threads".
  const char* metavar = nullptr;  ///< "N", "PATH"; nullptr for a switch.
  Target target;
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

struct CliMode {
  /// "search"; nullptr for a binary's default mode.
  const char* name = nullptr;
  /// In synopsis order.
  std::vector<CliFlag> flags;
  /// The operands as the synopsis shows them ("<sweep.ini>").
  const char* operands = "";
  std::size_t max_operands = 0;
};

struct CliArgs {
  std::vector<const char*> operands;  ///< Point into the parsed words.
  std::string error;                  ///< Empty on success.
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses `args`, the words after the program and mode names, storing
/// every flag's value through its row's target. The errors: an unknown
/// flag ("unknown search option '--x'"), a value flag that ends the line
/// ("--x needs a value"), a number outside the grammar or the range
/// ("--x needs a positive integer, got 'V'") and an operand past
/// max_operands ("unexpected argument 'V'"). Parsing stops at the first
/// error.
[[nodiscard]] CliArgs parse_cli(const CliMode& mode,
                                std::span<char* const> args);

/// "usage: PROGRAM MODE [--flag METAVAR]... OPERANDS\n": every flag in
/// table order, wrapped onto indented lines before column 80.
[[nodiscard]] std::string cli_synopsis(std::string_view program,
                                       const CliMode& mode);

}  // namespace adaptbf
