#include "cli/args.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace densest {

namespace {

std::string Flag(std::string_view name) {
  return "--" + std::string(name);
}

/// Converts `text` to `spec`'s type and checks its minimum or choices.
StatusOr<FlagValue> ParseValue(const FlagSpec& spec, const std::string& text) {
  const std::string flag = Flag(spec.name);
  switch (spec.type) {
    case FlagType::kBool:
      if (text == "true" || text == "1") return FlagValue(true);
      if (text == "false" || text == "0") return FlagValue(false);
      return Status::InvalidArgument(flag + " expects a boolean, got '" +
                                     text + "'");
    case FlagType::kInt:
    case FlagType::kDouble: {
      char* end = nullptr;
      const bool is_int = spec.type == FlagType::kInt;
      const long long i = is_int ? std::strtoll(text.c_str(), &end, 10) : 0;
      const double d = is_int ? static_cast<double>(i)
                              : std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument(
            flag + (is_int ? " expects an integer" : " expects a number") +
            ", got '" + text + "'");
      }
      if (spec.min && !(d >= static_cast<double>(*spec.min))) {
        return Status::InvalidArgument(flag + " must be >= " +
                                       std::to_string(*spec.min) + ", got '" +
                                       text + "'");
      }
      if (is_int) return FlagValue(static_cast<int64_t>(i));
      return FlagValue(d);
    }
    case FlagType::kString:
      return FlagValue(text);
    case FlagType::kEnum:
      if (("|" + std::string(spec.choices) + "|").find("|" + text + "|") !=
          std::string::npos) {
        return FlagValue(text);
      }
      return Status::InvalidArgument(flag + " expects one of " +
                                     std::string(spec.choices) + ", got '" +
                                     text + "'");
  }
  return Status::Internal("unhandled flag type for " + flag);
}

}  // namespace

std::string FormatFlags(const std::vector<FlagSpec>& flags,
                        std::string_view indent) {
  constexpr size_t kHelpColumn = 26;
  std::string out;
  for (const FlagSpec& f : flags) {
    std::string lhs = Flag(f.name);
    if (f.type == FlagType::kEnum) {
      lhs += "=" + std::string(f.choices);
    } else if (f.type != FlagType::kBool) {
      lhs += "=" + (f.def.empty() ? std::string("\"\"") : std::string(f.def));
    }
    out += indent;
    out += lhs;
    out.append(lhs.size() + 2 <= kHelpColumn ? kHelpColumn - lhs.size() : 2,
               ' ');
    out += f.help;
    if (f.min) out += " (>= " + std::to_string(*f.min) + ")";
    out += "\n";
  }
  return out;
}

std::string FormatCommandUsage(const CommandSpec& command) {
  std::string out = "  " + std::string(command.name);
  if (!command.positionals.empty()) {
    out += " " + std::string(command.positionals);
  }
  out += "\n      " + std::string(command.synopsis) + "\n";
  return out + FormatFlags(command.flags, "      ");
}

StatusOr<Args> Args::Parse(const CommandSpec& command,
                           const std::vector<FlagSpec>& globals,
                           const std::vector<std::string>& tokens) {
  Args out;
  auto find = [&](std::string_view name) -> const FlagSpec* {
    for (const std::vector<FlagSpec>* list : {&command.flags, &globals}) {
      for (const FlagSpec& f : *list) {
        if (f.name == name) return &f;
      }
    }
    return nullptr;
  };
  auto assign = [&](const FlagSpec& spec, const std::string& text) -> Status {
    StatusOr<FlagValue> v = ParseValue(spec, text);
    if (!v.ok()) return v.status();
    out.values_.insert_or_assign(std::string(spec.name), std::move(*v));
    return Status::OK();
  };
  for (const std::vector<FlagSpec>* list : {&command.flags, &globals}) {
    for (const FlagSpec& f : *list) {
      if (Status s = assign(f, std::string(f.def)); !s.ok()) {
        return Status::Internal("bad default in the flag table: " +
                                s.message());
      }
    }
  }

  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      out.positional_.push_back(tok);
      continue;
    }
    const size_t eq = tok.find('=');
    const std::string name = tok.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    if (name.empty()) return Status::InvalidArgument("malformed flag: " + tok);
    const FlagSpec* spec = find(name);
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown flag for " +
                                     std::string(command.name) + ": " +
                                     Flag(name));
    }
    std::string value;
    const bool has_next = i + 1 < tokens.size();
    if (eq != std::string::npos) {
      value = tok.substr(eq + 1);
    } else if (spec->type == FlagType::kBool) {
      // Only a literal true/false/1/0 is taken as the value.
      value = has_next && ParseValue(*spec, tokens[i + 1]).ok() ? tokens[++i]
                                                                 : "true";
    } else if (has_next && tokens[i + 1].rfind("--", 0) != 0) {
      value = tokens[++i];
    } else {
      return Status::InvalidArgument(Flag(name) + " expects a value");
    }
    if (Status s = assign(*spec, value); !s.ok()) return s;
  }

  const size_t want = static_cast<size_t>(std::count(
      command.positionals.begin(), command.positionals.end(), '<'));
  if (out.positional_.size() < want) {
    return Status::InvalidArgument("usage: " + std::string(command.name) +
                                   " " + std::string(command.positionals));
  }
  if (out.positional_.size() > want) {
    return Status::InvalidArgument("unexpected argument for " +
                                   std::string(command.name) + ": '" +
                                   out.positional_[want] + "'");
  }
  return out;
}

template <typename T>
const T& Args::Get(std::string_view name) const {
  auto it = values_.find(name);
  const T* v = it == values_.end() ? nullptr : std::get_if<T>(&it->second);
  if (v == nullptr) {
    std::fprintf(stderr, "flag %s is read but not declared with that type\n",
                 Flag(name).c_str());
    std::abort();
  }
  return *v;
}

bool Args::Bool(std::string_view name) const { return Get<bool>(name); }
int64_t Args::Int(std::string_view name) const { return Get<int64_t>(name); }
double Args::Double(std::string_view name) const { return Get<double>(name); }
const std::string& Args::String(std::string_view name) const {
  return Get<std::string>(name);
}

}  // namespace densest
