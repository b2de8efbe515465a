// One command-line layer for every tool and bench. Each binary registers
// its flags in a FlagSet, one row per flag (name, target, help line), and
// Parse() fills the targets from argv. A value must be all of the
// argument and in range for its target: `--num=1e5`, `--num=2k` and
// `--num=-1` are refused, not read as 1, 2 or 2^64-1. Any error prints the
// bad argument and the table (name, default, help) and exits 2.
//
// Header-only and free of pipelsm code, so pipelsm_top links no pipelsm
// library.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace pipelsm::flags {

// Parses all of `text` into *out: a decimal integer in T's range (no sign
// for an unsigned T), a floating-point number for a floating T, or any
// string. False, leaving *out alone, on anything else.
template <typename T>
bool ParseValue(const std::string& text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
    return true;
  } else {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) return false;
    *out = value;
    return true;
  }
}

// What ParseValue<T> accepts, for error messages.
template <typename T>
const char* ValueKind() {
  if constexpr (std::is_same_v<T, std::string>) return "a string";
  else if constexpr (std::is_floating_point_v<T>) return "a number";
  else if constexpr (std::is_signed_v<T>) return "an integer in range";
  else return "a non-negative integer in range";
}

class FlagSet {
 public:
  // `usage` is the synopsis printed above the table, e.g.
  // "db_bench [--flag=value ...]".
  explicit FlagSet(std::string usage) : usage_(std::move(usage)) {}

  // Registers --name=VALUE into *target, whose current value is the
  // default the table shows.
  template <typename T>
  void Add(const char* name, T* target, const char* help) {
    std::string shown;
    if constexpr (std::is_same_v<T, std::string>) {
      shown = *target;
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(*target));
      shown = buf;
    } else {
      shown = std::to_string(*target);
    }
    flags_.push_back({name, help, std::move(shown), ValueKind<T>(),
                      [target](const std::string& v) {
                        return ParseValue(v, target);
                      }});
  }

  // Registers the value-less switch --name, which sets *target to true.
  void Switch(const char* name, bool* target, const char* help) {
    flags_.push_back({name, help, "", nullptr, [target](const std::string&) {
                        *target = true;
                        return true;
                      }});
  }

  // Fills the targets from `args` up to the first argument that does not
  // start with "--", and returns that argument and every later one,
  // verbatim, in *positionals. False with *error naming the argument on an
  // unknown flag, a flag without its value, a malformed or out-of-range
  // value, or a switch given "=value".
  bool Parse(const std::vector<std::string>& args,
             std::vector<std::string>* positionals, std::string* error) {
    size_t i = 0;
    for (; i < args.size() && args[i].rfind("--", 0) == 0; i++) {
      const std::string& arg = args[i];
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(2, eq == std::string::npos
                                                 ? std::string::npos
                                                 : eq - 2);
      const Flag* flag = Find(name);
      if (flag == nullptr) {
        *error = "unknown flag '" + arg + "'";
        return false;
      }
      const bool is_switch = flag->kind == nullptr;
      if (is_switch != (eq == std::string::npos)) {
        *error = "'" + arg + "': --" + name +
                 (is_switch ? " is a switch and takes no value"
                            : " needs a value (--" + name + "=VALUE)");
        return false;
      }
      if (!flag->set(is_switch ? "" : arg.substr(eq + 1))) {
        *error = "bad value in '" + arg + "': --" + name + " expects " +
                 flag->kind;
        return false;
      }
    }
    positionals->assign(args.begin() + i, args.end());
    return true;
  }

  // Parse() over argv[1..argc); exits 2 through Fail() on an error.
  std::vector<std::string> Parse(int argc, char** argv) {
    std::vector<std::string> positionals;
    std::string error;
    if (!Parse(std::vector<std::string>(argv + 1, argv + argc), &positionals,
               &error)) {
      Fail(error);
    }
    return positionals;
  }

  // Parse() for a binary that takes flags only: any positional fails.
  void ParseFlags(int argc, char** argv) {
    const std::vector<std::string> positionals = Parse(argc, argv);
    if (!positionals.empty()) {
      Fail("unexpected argument '" + positionals[0] + "'");
    }
  }

  // Parses a positional, such as pipelsm_cli's LIMIT, with the flags'
  // number check; exits 2 through Fail() if it is malformed.
  template <typename T>
  T Number(const char* what, const std::string& text) const {
    T value{};
    if (!ParseValue(text, &value)) {
      Fail(std::string("bad ") + what + " '" + text + "': expects " +
           ValueKind<T>());
    }
    return value;
  }

  // Prints `message`, the synopsis and the flag table to stderr; exits 2.
  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "error: %s\nusage: %s\n", message.c_str(),
                 usage_.c_str());
    constexpr size_t kWidth = 32;  // a longer --name=default wraps its help
    for (const Flag& f : flags_) {
      std::string left =
          "--" + f.name + (f.kind != nullptr ? "=" + f.shown : "");
      left += left.size() < kWidth
                  ? std::string(kWidth - left.size(), ' ')
                  : "\n" + std::string(kWidth + 2, ' ');
      std::fprintf(stderr, "  %s%s\n", left.c_str(), f.help.c_str());
    }
    std::exit(2);
  }

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string shown;  // the default, as the table prints it
    const char* kind;   // ValueKind of the target; nullptr for a switch
    std::function<bool(const std::string&)> set;
  };

  const Flag* Find(const std::string& name) const {
    for (const Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  std::string usage_;
  std::vector<Flag> flags_;
};

}  // namespace pipelsm::flags
