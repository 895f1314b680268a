// perfbench — the repository benchmark executable.
//
//   perfbench --workload <paper_sweep|aggregates|dense_blocks|serve_mix>
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--tiny] [--inject-fault] [--commit ID]
//
// Prints one JSON report line (environment stamp, input shapes, answer
// digest, sample counts) and then, as the last line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1 (which also writes the recorded spans to DIR). Exits non-zero
// when any answer fails its cross-check.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/cli.hpp"

namespace {

using namespace perfbench;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool comparable_build() {
#if defined(PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#endif
}

void stamp_environment(Report& report, const Options& opts, const std::string& commit) {
  report.add("workload", opts.workload);
  report.add_number("seed", static_cast<double>(opts.seed));
  report.add_number("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.add_number("workers", static_cast<double>(c3::num_workers()));
  report.add("kernel_backend", c3::bits::kernel_backend_name(c3::bits::active_kernel_backend()));
  report.add("build_type", PERFBENCH_BUILD_TYPE);
  report.add_raw("comparable", comparable_build() ? "true" : "false");
  report.add("commit", commit);
}

}  // namespace

int main(int argc, char** argv) {
  const c3::CommandLine cli(argc, argv);
  Options opts;
  opts.workload = cli.get_string("workload", "");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.seconds = cli.get_double("seconds", 10.0);
  opts.trace = cli.get_int("trace", 0) != 0;
  opts.tiny = cli.has_flag("tiny");
  opts.inject_fault = cli.has_flag("inject-fault");
  opts.out_dir = cli.get_string("out-dir", ".");

  using Runner = void (*)(Context&);
  Runner runner = nullptr;
  if (opts.workload == "paper_sweep") runner = run_paper_sweep;
  if (opts.workload == "aggregates") runner = run_aggregates;
  if (opts.workload == "dense_blocks") runner = run_dense_blocks;
  if (opts.workload == "serve_mix") runner = run_serve_mix;
  if (runner == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }

  Gate gate;
  Metrics metrics;
  Tracer tracer(opts.trace);
  Report report;
  Digest digest;
  Context ctx{opts, gate, metrics, tracer, report, digest, opts.inject_fault};
  stamp_environment(report, opts, cli.get_string("commit", "unknown"));
  try {
    std::filesystem::create_directories(opts.out_dir);
    runner(ctx);
  } catch (const std::exception& e) {
    gate.attempt();
    gate.check(false, std::string("run aborted: ") + e.what());
  }

  const std::uint64_t attempted = gate.attempted();
  const std::uint64_t failed = gate.failed();
  const double ok_rate = attempted > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  const auto end_to_end = [](const std::string& name) {
    return name == "setup_s" || name.rfind("query_s.", 0) == 0 || name.rfind("req_", 0) == 0;
  };
  Metrics shown;
  if (opts.trace) {
    for (const auto& [name, value] : metrics.all()) {
      if (!end_to_end(name)) shown.set(name, value.first, value.second);
    }
    const auto trace_path = opts.out_dir / ("trace_" + opts.workload + ".json");
    tracer.write(trace_path);
    report.add("trace_file", trace_path.string());
    report.add_number("spans", static_cast<double>(tracer.size()));
  } else {
    for (const auto& [name, value] : metrics.all()) {
      if (end_to_end(name)) shown.set(name, value.first, value.second);
    }
    shown.set("peak_rss_mb", peak_rss_mb(), "MB");
    shown.set("answer_ok_rate", ok_rate, "ratio");
  }
  report.add("digest", digest.hex());
  std::printf("%s\n", report.json().c_str());

  std::string result = "{\"correct\": ";
  result += failed == 0 && attempted > 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
            ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : shown.all()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value.first);
    result += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + buf +
              ", \"unit\": " + json_string(value.second) + "}";
    first = false;
  }
  std::printf("%s}}\n", result.c_str());
  std::fflush(stdout);
  return failed == 0 && attempted > 0 ? 0 : 1;
}
