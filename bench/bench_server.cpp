// TCP serving bench — the perf number for the PR 6 network front end. A
// two-graph catalog (one in-memory, one snapshot-backed) goes behind a
// loopback CliqueServer; N concurrent LineClients each run the same mixed
// request set twice:
//
//   cold — empty answer cache: every request executes on the engine;
//   warm — the same requests again: the cache answers without touching the
//          engine (hits are asserted, not hoped for).
//
// Every wire answer is cross-checked against a direct CliqueService::run of
// the same request (non-zero exit on mismatch), so the bench doubles as an
// end-to-end protocol check. Results go to a machine-readable JSON report:
//
//   ./bench_server [--out BENCH_pr6.json] [--clients 8] [--reps 3]
//
// Schema: {"bench", "workers", "clients", "graphs": [{"name", n, m}],
// "requests", "cold_seconds", "warm_seconds", "warm_speedup",
// "cache_hit_rate"}
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "c3list.hpp"
#include "datasets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace c3;

/// The serving mix, as request lines: small counts and probes over a few k,
/// a spectrum, and a max-clique, against each graph in turn.
std::vector<std::string> make_request_mix(const std::vector<std::string>& ids) {
  std::vector<std::string> requests;
  for (const std::string& id : ids) {
    for (int rep = 0; rep < 3; ++rep) {
      for (int k = 3; k <= 6; ++k) requests.push_back(id + " count " + std::to_string(k));
    }
    for (int k = 3; k <= 6; ++k) requests.push_back(id + " hasclique " + std::to_string(k));
    requests.push_back(id + " spectrum 6");
    requests.push_back(id + " maxclique witness=0");
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int clients = static_cast<int>(cli.get_int("clients", 8));
  const std::string out_path = cli.get_string("out", "BENCH_pr6.json");

  std::vector<bench::SmokeGraph> smoke = bench::smoke_graphs();
  if (smoke.size() < 2) {
    std::fprintf(stderr, "bench_server: needs at least two smoke graphs\n");
    return 1;
  }
  const std::filesystem::path snap_path =
      std::filesystem::temp_directory_path() /
      ("bench_server_" + std::to_string(::getpid()) + ".c3snap");
  {
    CliqueOptions opts;
    opts.algorithm = Algorithm::C3List;
    const PreparedGraph offline(smoke[1].graph, opts);
    snapshot::write(snap_path, offline);
  }

  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  CliqueService service;
  service.add_graph(smoke[0].name, Graph(smoke[0].graph), opts);
  service.add_snapshot(smoke[1].name, snap_path);
  const std::vector<std::string> ids = {smoke[0].name, smoke[1].name};
  for (const std::string& id : ids) service.prepare(id);

  const std::vector<std::string> requests = make_request_mix(ids);
  const std::size_t total_requests = requests.size() * static_cast<std::size_t>(clients);

  // Ground truth straight through the service, once per distinct request.
  std::map<std::string, std::string> expected;
  for (const std::string& r : requests) {
    if (expected.count(r) != 0) continue;
    const std::size_t space = r.find(' ');
    expected[r] = format_answer(service.run(r.substr(0, space), parse_query(r.substr(space + 1))));
  }

  /// One timed pass: `clients` threads, each sending every request in its
  /// own rotation. Returns the wall seconds; counts mismatches into `bad`.
  const auto pass = [&](const net::CliqueServer& server, int* bad) {
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    threads.reserve(static_cast<std::size_t>(clients));
    WallTimer timer;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          net::LineClient client("127.0.0.1", static_cast<std::uint16_t>(server.port()));
          for (std::size_t i = 0; i < requests.size(); ++i) {
            const std::string& r = requests[(i + static_cast<std::size_t>(c)) % requests.size()];
            if (client.request(r) != expected[r]) mismatches.fetch_add(1);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench_server: client: %s\n", e.what());
          mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    *bad += mismatches.load();
    return timer.seconds();
  };

  double cold_best = 0.0, warm_best = 0.0, hit_rate = 0.0;
  int bad = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // A fresh server per rep: the cold pass really is cold.
    net::ServerOptions server_opts;
    server_opts.port = 0;
    net::CliqueServer server(service, server_opts);
    server.start();

    const double cold = pass(server, &bad);
    cold_best = rep == 0 ? cold : std::min(cold_best, cold);
    const double warm = pass(server, &bad);
    warm_best = rep == 0 ? warm : std::min(warm_best, warm);

    const net::ServerStats stats = server.stats();
    const std::uint64_t asked = stats.frontend.cache.hits + stats.frontend.cache.misses;
    hit_rate = asked > 0 ? static_cast<double>(stats.frontend.cache.hits) /
                               static_cast<double>(asked)
                         : 0.0;
    if (stats.frontend.cache_hits == 0) {
      std::fprintf(stderr, "bench_server: warm pass produced no cache hits\n");
      ++bad;
    }
    server.stop();
  }
  std::filesystem::remove(snap_path);

  const double warm_speedup = warm_best > 0.0 ? cold_best / warm_best : 0.0;
  Table t({"pass", "clients", "requests", "seconds", "speedup"});
  t.add_row({"cold", std::to_string(clients), std::to_string(total_requests),
             strfmt("%.3f", cold_best), "1.00x"});
  t.add_row({"warm", std::to_string(clients), std::to_string(total_requests),
             strfmt("%.3f", warm_best), strfmt("%.2fx", warm_speedup)});
  t.print();
  std::printf("cache hit rate %.1f%%\n", hit_rate * 100.0);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "bench_server: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\"bench\": \"server\", \"workers\": %d, \"clients\": %d, \"graphs\": [",
               num_workers(), clients);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Graph& g = service.engine(ids[i]).graph();
    std::fprintf(json, "%s{\"name\": \"%s\", \"n\": %u, \"m\": %llu}", i > 0 ? ", " : "",
                 ids[i].c_str(), g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  }
  std::fprintf(json,
               "], \"requests\": %zu, \"cold_seconds\": %.6f, \"warm_seconds\": %.6f, "
               "\"warm_speedup\": %.4f, \"cache_hit_rate\": %.4f}\n",
               total_requests, cold_best, warm_best, warm_speedup, hit_rate);
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());

  if (bad != 0) {
    std::fprintf(stderr, "bench_server: cross-check FAILED (%d mismatches)\n", bad);
    return 1;
  }
  return 0;
}
