// Concurrency stress tests for the query engine: many std::threads issuing
// mixed queries against ONE PreparedGraph must (a) agree with serial ground
// truth on every result, (b) build each prepared artifact exactly once no
// matter how many queries race for it, and (c) attribute the preparation
// cost to exactly the queries that paid it. Run under ThreadSanitizer by
// `./ci.sh tsan` — these tests are the reason that config exists.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "clique/spectrum.hpp"
#include "graph/gen/generators.hpp"

namespace c3 {
namespace {

constexpr int kThreads = 8;
constexpr int kRoundsPerThread = 3;

/// Serial ground truth for one graph: counts for k = 3..6, the spectrum,
/// and the clique number, computed on a throwaway engine.
struct GroundTruth {
  count_t counts[4] = {0, 0, 0, 0};
  CliqueSpectrum spectrum;
  node_t omega = 0;

  GroundTruth(const Graph& g, const CliqueOptions& opts) {
    const PreparedGraph engine(g, opts);
    for (int k = 3; k <= 6; ++k) counts[k - 3] = engine.count(k).count;
    spectrum = engine.spectrum();
    omega = engine.max_clique_size();
  }
};

/// Expected artifact builds per algorithm: C3List needs the DAG and the
/// communities; C3ListCD the edge order, plus the DAG the spectrum's pivot
/// pass runs on; the orientation-based three just the DAG.
int expected_artifacts(Algorithm alg) {
  switch (alg) {
    case Algorithm::C3List:
    case Algorithm::C3ListCD:
      return 2;
    default:
      return 1;
  }
}

void stress_one_engine(const Graph& g, Algorithm alg) {
  CliqueOptions opts;
  opts.algorithm = alg;
  const GroundTruth truth(g, opts);

  // One shared engine, cold: the first queries race to prepare it.
  const PreparedGraph engine(g, opts);
  std::atomic<int> mismatches{0};
  std::atomic<int> builders{0};  // queries that reported preprocess cost

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        // Every thread mixes query types; the k rotation staggers them.
        const int k = 3 + (t + round) % 4;
        const CliqueResult r = engine.count(k);
        if (r.count != truth.counts[k - 3]) mismatches.fetch_add(1);
        if (r.stats.preprocess_seconds > 0.0) builders.fetch_add(1);

        if (engine.has_clique(static_cast<int>(truth.omega) + 1)) mismatches.fetch_add(1);
        if (!engine.has_clique(static_cast<int>(truth.omega))) mismatches.fetch_add(1);

        if (t % 2 == 0) {
          const CliqueSpectrum spec = engine.spectrum();
          if (spec.counts != truth.spectrum.counts || spec.omega != truth.spectrum.omega)
            mismatches.fetch_add(1);
        } else {
          if (engine.max_clique_size() != truth.omega) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0) << algorithm_name(alg);
  // The latches collapse all racing preparations into exactly one build per
  // artifact...
  EXPECT_EQ(engine.artifacts_built(), expected_artifacts(alg)) << algorithm_name(alg);
  // ...whose cost is attributed to the building queries only: at most one
  // query can have built each artifact. (count(k) needs ≤ 2 artifacts, the
  // decision/spectrum queries can build the rest, but never more reporters
  // than artifacts.)
  EXPECT_LE(builders.load(), expected_artifacts(alg)) << algorithm_name(alg);
  EXPECT_GT(engine.prepare_seconds(), 0.0) << algorithm_name(alg);
}

TEST(ConcurrentQueries, MixedQueriesMatchSerialGroundTruthC3List) {
  stress_one_engine(social_like(500, 4000, 0.4, 17), Algorithm::C3List);
}

TEST(ConcurrentQueries, MixedQueriesMatchSerialGroundTruthC3ListCD) {
  stress_one_engine(erdos_renyi(300, 2400, 23), Algorithm::C3ListCD);
}

TEST(ConcurrentQueries, MixedQueriesMatchSerialGroundTruthHybrid) {
  stress_one_engine(erdos_renyi(300, 2400, 29), Algorithm::Hybrid);
}

TEST(ConcurrentQueries, MixedQueriesMatchSerialGroundTruthKCList) {
  stress_one_engine(barabasi_albert(400, 5, 31), Algorithm::KCList);
}

TEST(ConcurrentQueries, MixedQueriesMatchSerialGroundTruthArbCount) {
  stress_one_engine(barabasi_albert(400, 5, 37), Algorithm::ArbCount);
}

TEST(ConcurrentQueries, RacingPrepareCallsBuildOnce) {
  const Graph g = social_like(400, 3200, 0.4, 41);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] { engine.prepare(); });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(engine.artifacts_built(), 2);
  const double after_race = engine.prepare_seconds();
  EXPECT_GT(after_race, 0.0);
  // Later queries reuse: no further preparation, zero attributed cost.
  const CliqueResult r = engine.count(4);
  EXPECT_EQ(r.stats.preprocess_seconds, 0.0);
  EXPECT_EQ(engine.prepare_seconds(), after_race);
}

TEST(ConcurrentQueries, ConcurrentListingsSeeIsolatedStopFlags) {
  // Thread A lists everything; thread B stops after the first clique. B's
  // early stop must not leak into A's enumeration (isolated per-lease stop
  // flags) — pre-lease, a shared scratch pool made this a data race.
  const Graph g = erdos_renyi(200, 1600, 43);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);
  const count_t expect = engine.count(4).count;
  ASSERT_GT(expect, 0u);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        std::atomic<count_t> seen{0};
        const CliqueResult r = engine.list(4, [&](std::span<const node_t>) {
          seen.fetch_add(1, std::memory_order_relaxed);
          return true;
        });
        if (r.count != expect || seen.load() != expect) mismatches.fetch_add(1);
      } else {
        if (!engine.find_clique(4).has_value()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace c3
