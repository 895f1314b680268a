// Shared pieces of the perfbench executable: options, the correctness gate, the
// metric sink, the span recorder, the run report, and small statistics.
//
// The benchmark measures the c3 library only from outside: every layer time is
// the duration of a span the benchmark opens around a call into that layer's
// public entry point (build_graph, PreparedGraph::prepare/run,
// snapshot::write/Snapshot::open, CliqueService::run, LineClient::request).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "c3list.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< self-check scale: small inputs, same code paths
  bool inject_fault = false;  ///< corrupt one expected answer (the gate must fail)
  std::filesystem::path out_dir = ".";
};

/// The five production algorithms, in the order every per-algorithm metric
/// is reported.
inline constexpr c3::Algorithm kAlgorithms[] = {c3::Algorithm::C3List, c3::Algorithm::C3ListCD,
                                                c3::Algorithm::Hybrid, c3::Algorithm::KCList,
                                                c3::Algorithm::ArbCount};
inline constexpr int kNumAlgorithms = 5;
/// Metric-name suffix of each algorithm (query_s.<suffix>, ...).
inline constexpr const char* kAlgKeys[] = {"c3list", "c3list_cd", "hybrid", "kclist", "arbcount"};

[[nodiscard]] inline double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable, and independent of the library's RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Counts answers checked and checks failed. Every failure is reported on
/// stderr (the first few in full) and fails the run.
class Gate {
 public:
  void attempt(std::uint64_t n = 1);
  /// Records one failed check unless `ok`.
  bool check(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// name -> (value, unit), emitted in the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// In-memory span recorder. A span is timed whether or not recording is on
/// (its duration is what the metrics read); when on, it is also kept with
/// its parent (the enclosing span on the same thread) and a request id, and
/// write() dumps every span as Chrome trace-event JSON at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_seconds()) {}
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] std::size_t size() const;
  void write(const std::filesystem::path& path) const;

  class Span {
   public:
    Span(Tracer& tracer, std::string name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Seconds since the span opened.
    [[nodiscard]] double seconds() const { return now_seconds() - start_; }

   private:
    Tracer& tracer_;
    double start_;
    long index_ = -1;  // slot in the tracer, when recording
  };

 private:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    std::uint64_t request = 0;
    std::uint64_t thread = 0;
  };
  bool enabled_;
  double origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// Facts about a run that are not metrics: the environment stamp, input
/// shapes, answer digest, sample counts. Printed as one JSON line before the
/// result line.
class Report {
 public:
  void add(const std::string& key, const std::string& value);  // string field
  void add_number(const std::string& key, double value);
  void add_raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> JSON text
};

/// Order-sensitive FNV-1a digest of answer texts.
class Digest {
 public:
  void add(std::string_view text);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

[[nodiscard]] std::string json_string(std::string_view s);
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// A fresh request id for a span; ids are unique within a run.
[[nodiscard]] std::uint64_t next_request_id();
/// Seed of one named input, derived from the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t run_seed, std::string_view name);

/// Everything a workload reads and fills.
struct Context {
  const Options& opts;
  Gate& gate;
  Metrics& metrics;
  Tracer& tracer;
  Report& report;
  Digest& digest;
  bool fault_pending = false;  ///< --inject-fault not yet applied
};

void run_paper_sweep(Context& ctx);
void run_aggregates(Context& ctx);
void run_dense_blocks(Context& ctx);
void run_serve_mix(Context& ctx);

}  // namespace perfbench
