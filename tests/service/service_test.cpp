// CliqueService: a catalog of named graphs (in-memory + snapshot-backed,
// lazily opened) routing typed queries by graph id — including interleaved
// queries from 8 threads across two graphs, with per-query worker caps
// respected and the global worker count untouched, clean under
// ThreadSanitizer.
#include "clique/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
#include "snapshot/snapshot.hpp"

namespace c3 {
namespace {

std::filesystem::path temp_snapshot_path(const char* tag) {
  static std::atomic<int> counter{0};
  return std::filesystem::temp_directory_path() /
         ("c3_service_test_" + std::string(tag) + "_" +
          std::to_string(counter.fetch_add(1)) + "_" + std::to_string(::getpid()) + ".c3snap");
}

/// Writes a prepared snapshot of `g` and returns its path (caller removes).
std::filesystem::path write_snapshot(const Graph& g, const CliqueOptions& opts, const char* tag) {
  const std::filesystem::path path = temp_snapshot_path(tag);
  const PreparedGraph engine(g, opts);
  snapshot::write(path, engine);
  return path;
}

Query make(QueryKind kind, int k = 0, int kmax = 0) {
  Query q;
  q.kind = kind;
  q.k = k;
  q.kmax = kmax;
  return q;
}

TEST(CliqueService, RoutesQueriesByGraphId) {
  const Graph a = social_like(200, 1500, 0.4, 3);
  const Graph b = erdos_renyi(150, 900, 7);
  const count_t a4 = PreparedGraph(a, {}).count(4).count;
  const count_t b4 = PreparedGraph(b, {}).count(4).count;

  CliqueService service;
  service.add_graph("social", Graph(a));
  service.add_graph("er", Graph(b));
  ASSERT_EQ(service.size(), 2u);
  EXPECT_TRUE(service.has_graph("social"));
  EXPECT_FALSE(service.has_graph("nope"));

  EXPECT_EQ(service.run("social", make(QueryKind::Count, 4)).count, a4);
  EXPECT_EQ(service.run("er", make(QueryKind::Count, 4)).count, b4);
  EXPECT_THROW((void)service.run("nope", make(QueryKind::Count, 3)), std::invalid_argument);
  EXPECT_THROW(service.add_graph("social", Graph(b)), std::invalid_argument);
}

TEST(CliqueService, SnapshotEntriesOpenLazilyAndOnce) {
  const Graph g = social_like(200, 1600, 0.4, 13);
  const std::filesystem::path path = write_snapshot(g, {}, "lazy");
  const count_t expected = PreparedGraph(g, {}).count(4).count;

  CliqueService service;
  service.add_snapshot("snap", path);
  // Registration touches nothing: the catalog row shows an unopened entry.
  ASSERT_EQ(service.catalog().size(), 1u);
  EXPECT_TRUE(service.catalog()[0].from_snapshot);
  EXPECT_FALSE(service.catalog()[0].opened);

  // Racing first uses open the snapshot exactly once (the engine underneath
  // asserts artifacts are installed, not rebuilt).
  std::vector<std::thread> threads;
  std::vector<count_t> counts(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] { counts[t] = service.run("snap", make(QueryKind::Count, 4)).count; });
  }
  for (std::thread& th : threads) th.join();
  for (const count_t c : counts) EXPECT_EQ(c, expected);

  EXPECT_TRUE(service.catalog()[0].opened);
  EXPECT_EQ(service.catalog()[0].num_nodes, g.num_nodes());
  // A snapshot-loaded engine never rebuilds: prepare_seconds stays zero.
  EXPECT_EQ(service.engine("snap").prepare_seconds(), 0.0);

  std::filesystem::remove(path);
}

TEST(CliqueService, MissingSnapshotFailsOnFirstUseAndStays) {
  // A file in the retired sharded-manifest format (its 9-byte magic, padded
  // past the snapshot header size) must be refused and named, not misread.
  constexpr char kOldManifestMagic[] = {'c', '3', 's', 'h', 'a', 'r', 'd', '0', '1'};
  const std::filesystem::path old_manifest = temp_snapshot_path("old_manifest");
  {
    std::string bytes(4096, '\0');
    bytes.replace(0, sizeof kOldManifestMagic, kOldManifestMagic, sizeof kOldManifestMagic);
    std::ofstream(old_manifest, std::ios::binary) << bytes;
  }
  const struct {
    std::filesystem::path path;
    const char* reason;
  } inputs[] = {{"/nonexistent/ghost.c3snap", "cannot open"}, {old_manifest, "bad magic"}};

  for (const auto& input : inputs) {
    SCOPED_TRACE(input.path.string());
    CliqueService service;
    service.add_snapshot("ghost", input.path);
    const auto run_error = [&service]() -> std::string {
      try {
        (void)service.run("ghost", make(QueryKind::Count, 3));
      } catch (const std::runtime_error& e) {
        return e.what();
      }
      return "";
    };
    const std::string first = run_error();
    EXPECT_NE(first.find(input.path.string()), std::string::npos) << first;
    EXPECT_NE(first.find(input.reason), std::string::npos) << first;
    // The failed open is sticky — no half-open entry on retry.
    EXPECT_EQ(run_error(), first);
    EXPECT_FALSE(service.catalog()[0].opened);
  }
  std::filesystem::remove(old_manifest);
}

TEST(CliqueService, SnapshotWarmupHintsServeIdentically) {
  const Graph g = erdos_renyi(150, 1100, 19);
  const std::filesystem::path path = write_snapshot(g, {}, "warm");
  const count_t expected = PreparedGraph(g, {}).count(4).count;

  snapshot::SnapshotOpenOptions open;
  open.prefault = true;
  open.lock_memory = true;  // best-effort: allowed to degrade, never to fail
  CliqueService service;
  service.add_snapshot("warm", path, open);
  EXPECT_EQ(service.run("warm", make(QueryKind::Count, 4)).count, expected);

  std::filesystem::remove(path);
}

// The acceptance scenario: one in-memory graph and one snapshot-backed graph
// behind one service, 8 threads interleaving queries across both through
// CliqueService::run, per-query worker caps respected, global worker count
// untouched.
TEST(CliqueService, InterleavedQueriesAcrossTwoGraphs) {
  const Graph mem = social_like(220, 1700, 0.45, 29);
  const Graph disk = erdos_renyi(180, 1300, 31);
  const std::filesystem::path path = write_snapshot(disk, {}, "interleave");

  CliqueService service;
  service.add_graph("mem", Graph(mem));
  service.add_snapshot("disk", path);
  service.prepare("mem");
  service.prepare("disk");

  // Ground truth per graph.
  const count_t mem3 = PreparedGraph(mem, {}).count(3).count;
  const count_t mem4 = PreparedGraph(mem, {}).count(4).count;
  const count_t disk3 = PreparedGraph(disk, {}).count(3).count;
  const count_t disk4 = PreparedGraph(disk, {}).count(4).count;

  const int global_before = num_workers();

  // 8 threads interleave queries across both graphs with varying per-query
  // caps; every answer is verified against the per-graph ground truth via
  // its echoed k.
  std::atomic<int> mismatches{0};
  std::atomic<int> verified{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        const int k = 3 + ((t + rep) % 2);
        Query q = make(QueryKind::Count, k);
        q.opts.max_workers = 1 + (t % 3);
        const bool to_mem = (t + rep) % 2 == 0;
        const Answer answer = service.run(to_mem ? "mem" : "disk", q);
        const count_t expected =
            to_mem ? (answer.k == 3 ? mem3 : mem4) : (answer.k == 3 ? disk3 : disk4);
        if (answer.k != k || answer.count != expected) mismatches.fetch_add(1);
        verified.fetch_add(1);
      }
    });
  }
  for (std::thread& th : clients) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(verified.load(), 24) << "every query must be answered exactly once";
  EXPECT_EQ(num_workers(), global_before) << "per-query caps must not write the global cap";

  std::filesystem::remove(path);
}

TEST(CliqueService, ConcurrentMixedQueriesAcrossTwoGraphs) {
  // Direct run() from many threads, mixed kinds, both graphs — the
  // service-level reentrancy test (runs under TSan via the service label).
  const Graph a = social_like(200, 1500, 0.5, 41);
  const Graph b = erdos_renyi(160, 1000, 43);
  CliqueService service;
  service.add_graph("a", Graph(a));
  service.add_graph("b", Graph(b));

  const count_t a3 = PreparedGraph(a, {}).count(3).count;
  const node_t b_omega = PreparedGraph(b, {}).max_clique_size();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 2; ++rep) {
        if (t % 4 == 0) {
          if (service.run("a", make(QueryKind::Count, 3)).count != a3) failures.fetch_add(1);
        } else if (t % 4 == 1) {
          Query q = make(QueryKind::MaxClique);
          q.opts.want_witness = false;
          if (service.run("b", q).omega != b_omega) failures.fetch_add(1);
        } else if (t % 4 == 2) {
          Query q = make(QueryKind::List, 3);
          q.opts.result_limit = 5;
          const Answer ans = service.run("a", q);
          if (ans.cliques.size() > 5) failures.fetch_add(1);
        } else {
          if (!service.run("b", make(QueryKind::HasClique, 2)).found) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace c3
