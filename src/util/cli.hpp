// Minimal command-line argument parsing for examples and bench binaries.
//
// Supports `--key value`, `--key=value`, and boolean `--flag` forms plus
// environment-variable fallbacks, which the bench harness uses so that
// `for b in build/bench/*; do $b; done` runs with sensible defaults while
// still allowing scale overrides (e.g. C3_BENCH_REPS=10).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace c3 {

/// Parsed argv with typed accessors. Unknown keys are simply ignored by the
/// accessors, so binaries stay forward/backward compatible.
class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv) {
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
    if (auto v = get(name)) return std::atoll(v->c_str());
    return fallback;
  }

  [[nodiscard]] double get_double(std::string_view name, double fallback) const {
    if (auto v = get(name)) return std::atof(v->c_str());
    return fallback;
  }

  [[nodiscard]] std::string get_string(std::string_view name, std::string fallback) const {
    if (auto v = get(name)) return *v;
    return fallback;
  }

 private:
  std::vector<std::string> args_;
};

/// A TCP port in decimal, 0..65535; nullopt for anything else (empty,
/// non-numeric, trailing characters, out of range), so callers refuse the
/// value instead of binding a wrapped or default port.
[[nodiscard]] inline std::optional<std::uint16_t> parse_port(std::string_view text) {
  unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(value);
}

/// Integer environment variable with fallback (e.g. C3_BENCH_REPS).
[[nodiscard]] inline long long env_int(const char* name, long long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

}  // namespace c3
