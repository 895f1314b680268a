// Minimal command-line argument parsing for examples and bench binaries.
//
// Supports `--key value`, `--key=value`, and boolean `--flag` forms plus
// environment-variable fallbacks, which the bench harness uses so that
// `for b in build/bench/*; do $b; done` runs with sensible defaults while
// still allowing scale overrides (e.g. C3_BENCH_REPS=10).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace c3 {

/// `text` as a T, read in full by std::from_chars (no leading '+' or
/// whitespace, nothing trailing, in T's range); nullopt for anything else.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Refuses a malformed number: prints "<who>bad <what> '<value>'" to stderr
/// and exits with status 2, the usage-error status of every tool here.
[[noreturn]] inline void refuse_number(std::string_view who, std::string_view what,
                                       std::string_view value) {
  std::fprintf(stderr, "%.*sbad %.*s '%.*s'\n", static_cast<int>(who.size()), who.data(),
               static_cast<int>(what.size()), what.data(), static_cast<int>(value.size()),
               value.data());
  std::exit(2);
}

/// Parsed argv with typed accessors. Unknown keys are simply ignored by the
/// accessors, so binaries stay forward/backward compatible. A numeric flag
/// whose value is not a number is refused (refuse_number), never read as 0.
class CommandLine {
 public:
  /// `prog` names the program in refusals; the basename of argv[0] when
  /// empty (a tool with subcommands passes e.g. "c3tool count").
  CommandLine(int argc, const char* const* argv, std::string_view prog = {}) {
    if (prog.empty() && argc > 0) {
      prog = argv[0];
      prog.remove_prefix(prog.find_last_of('/') + 1);
    }
    prog_ = std::string(prog) + ": ";
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// True if `--name` appears (with or without a value).
  [[nodiscard]] bool has_flag(std::string_view name) const {
    const std::string key = "--" + std::string(name);
    for (const auto& a : args_)
      if (a == key || a.rfind(key + "=", 0) == 0) return true;
    return false;
  }

  /// String value of `--name value` or `--name=value`, if present.
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const {
    const std::string key = "--" + std::string(name);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == key && i + 1 < args_.size()) return args_[i + 1];
      if (args_[i].rfind(key + "=", 0) == 0) return args_[i].substr(key.size() + 1);
    }
    return std::nullopt;
  }

  /// Every value of a repeatable `--name value` / `--name=value` flag, in
  /// argv order (e.g. c3serve's --snapshot id=path, given once per graph).
  [[nodiscard]] std::vector<std::string> get_all(std::string_view name) const {
    const std::string key = "--" + std::string(name);
    std::vector<std::string> values;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == key && i + 1 < args_.size()) values.push_back(args_[i + 1]);
      if (args_[i].rfind(key + "=", 0) == 0) values.push_back(args_[i].substr(key.size() + 1));
    }
    return values;
  }

  [[nodiscard]] long long get_int(std::string_view name, long long fallback) const {
    return get_number(name, fallback);
  }

  [[nodiscard]] double get_double(std::string_view name, double fallback) const {
    return get_number(name, fallback);
  }

  [[nodiscard]] std::string get_string(std::string_view name, std::string fallback) const {
    if (auto v = get(name)) return *v;
    return fallback;
  }

 private:
  template <typename T>
  [[nodiscard]] T get_number(std::string_view name, T fallback) const {
    const auto v = get(name);
    if (!v) return fallback;
    if (const auto parsed = parse_number<T>(*v)) return *parsed;
    refuse_number(prog_, "--" + std::string(name), *v);
  }

  std::string prog_;  // "<program>: ", the refusals' prefix
  std::vector<std::string> args_;
};

/// A TCP port in decimal, 0..65535; nullopt for anything else (empty,
/// non-numeric, trailing characters, out of range), so callers refuse the
/// value instead of binding a wrapped or default port.
[[nodiscard]] inline std::optional<std::uint16_t> parse_port(std::string_view text) {
  const std::optional<unsigned> value = parse_number<unsigned>(text);
  if (!value || *value > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(*value);
}

/// Integer environment variable with fallback (e.g. C3_BENCH_REPS); a value
/// that is not an integer is refused (refuse_number).
[[nodiscard]] inline long long env_int(const char* name, long long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  if (const auto parsed = parse_number<long long>(v)) return *parsed;
  refuse_number("", name, v);
}

}  // namespace c3
