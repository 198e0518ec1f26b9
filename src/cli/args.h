// Copyright 2026 The densest Authors.
// The densest_cli flag model: each command declares its positionals and
// flags once, as a CommandSpec (the table is cli/command_table.cc), and
// both the pre-run checks and the usage text come from that declaration.

#ifndef DENSEST_CLI_ARGS_H_
#define DENSEST_CLI_ARGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace densest {

class Args;

enum class FlagType { kBool, kInt, kDouble, kString, kEnum };
/// A parsed flag value; kString and kEnum are both held as std::string.
using FlagValue = std::variant<bool, int64_t, double, std::string>;

/// \brief One flag as a command declares it.
struct FlagSpec {
  std::string_view name;  ///< without the leading "--"
  FlagType type;
  /// Default, spelled as it would be typed: "false", "1024", "0.5", "".
  /// kEnum defaults to the first of its choices.
  std::string_view def;
  std::string_view help;  ///< one line
  /// kInt / kDouble: smallest accepted value.
  std::optional<int64_t> min = std::nullopt;
  /// kEnum: the accepted values, '|'-separated.
  std::string_view choices = {};
};

/// Flag constructors, so a table entry reads as one line.
constexpr FlagSpec BoolFlag(std::string_view name, std::string_view help) {
  return {name, FlagType::kBool, "false", help};
}
constexpr FlagSpec IntFlag(std::string_view name, std::string_view def,
                           std::string_view help,
                           std::optional<int64_t> min = std::nullopt) {
  return {name, FlagType::kInt, def, help, min};
}
constexpr FlagSpec DoubleFlag(std::string_view name, std::string_view def,
                              std::string_view help,
                              std::optional<int64_t> min = std::nullopt) {
  return {name, FlagType::kDouble, def, help, min};
}
constexpr FlagSpec StringFlag(std::string_view name, std::string_view def,
                              std::string_view help) {
  return {name, FlagType::kString, def, help};
}
constexpr FlagSpec EnumFlag(std::string_view name, std::string_view choices,
                            std::string_view help) {
  return {name, FlagType::kEnum, choices.substr(0, choices.find('|')), help,
          std::nullopt, choices};
}

/// \brief One command: its name, positionals ("<graph>"; each <word> is a
/// required argument), a one-line synopsis, its flags and its body.
struct CommandSpec {
  std::string_view name;
  std::string_view positionals;
  std::string_view synopsis;
  std::vector<FlagSpec> flags;
  Status (*run)(const Args& args, std::ostream& out) = nullptr;
};

/// Usage text: a command's synopsis, then one "--name=default  help
/// (>= min)" line per flag.
std::string FormatCommandUsage(const CommandSpec& command);
std::string FormatFlags(const std::vector<FlagSpec>& flags,
                        std::string_view indent);

/// \brief A command line checked against a CommandSpec: positionals plus
/// a typed value (given or default) for every declared flag.
///
/// Grammar: --name=value, or --name value; a bool flag takes a following
/// token only when it is literally true/false/1/0, so a bare --trace never
/// swallows a positional. Repeating a flag keeps the last value.
class Args {
 public:
  /// Parses `tokens` (argv after the command name) against `command`'s
  /// flags plus `globals`. Fails with InvalidArgument on an unknown or
  /// malformed flag, a mistyped or below-minimum value, an enum value
  /// outside its choices, or a wrong positional count.
  static StatusOr<Args> Parse(const CommandSpec& command,
                              const std::vector<FlagSpec>& globals,
                              const std::vector<std::string>& tokens);

  /// Positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Typed flag values (String serves kString and kEnum). Reading a flag
  /// not declared with that type is a programming error and aborts.
  bool Bool(std::string_view name) const;
  int64_t Int(std::string_view name) const;
  double Double(std::string_view name) const;
  const std::string& String(std::string_view name) const;

 private:
  template <typename T>
  const T& Get(std::string_view name) const;

  std::vector<std::string> positional_;
  std::map<std::string, FlagValue, std::less<>> values_;
};

}  // namespace densest

#endif  // DENSEST_CLI_ARGS_H_
