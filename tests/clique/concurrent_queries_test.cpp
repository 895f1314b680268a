// Concurrency stress tests for the query engine: many std::threads issuing
// mixed queries against ONE PreparedGraph must (a) agree with serial ground
// truth on every result, (b) build each prepared artifact exactly once no
// matter how many queries race for it, and (c) attribute the preparation
// cost to exactly the queries that paid it, and (d) cap only their own
// parallelism — a per-query worker cap never writes the global count. Run
// under ThreadSanitizer by `./ci.sh tsan` — these tests are the reason that
// config exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "clique/spectrum.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"

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

/// Samples the global worker count on its own thread from construction until
/// stop(), and remembers whether it ever differed from the starting value.
class GlobalWorkerObserver {
 public:
  GlobalWorkerObserver() : before_(num_workers()), thread_([this] {
    while (watching_.load(std::memory_order_relaxed)) {
      if (num_workers() != before_) saw_change_.store(true, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }) {}

  /// Joins the observer; true when the global count never moved.
  bool stop() {
    watching_.store(false, std::memory_order_relaxed);
    thread_.join();
    return !saw_change_.load() && num_workers() == before_;
  }

 private:
  int before_;
  std::atomic<bool> watching_{true};
  std::atomic<bool> saw_change_{false};
  std::thread thread_;
};

TEST(ConcurrentQueries, PerQueryWorkerCapsNeverWriteTheGlobalCount) {
  // Threads running queries capped at 1..4 workers side by side cap only
  // themselves (a per-thread WorkerCapScope inside run()): an observer
  // sampling the global worker count the whole time never sees it move,
  // and every answer matches serial ground truth.
  const Graph g = social_like(250, 2000, 0.4, 23);
  const GroundTruth truth(g, {});
  const PreparedGraph engine(g, {});
  engine.prepare();
  GlobalWorkerObserver observer;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        Query count;
        count.kind = QueryKind::Count;
        count.k = 3 + (t + round) % 4;
        count.opts.max_workers = 1 + t % 4;
        if (engine.run(count).count != truth.counts[count.k - 3]) mismatches.fetch_add(1);

        Query whole;
        whole.kind = t % 2 == 0 ? QueryKind::Spectrum : QueryKind::MaxClique;
        whole.opts.max_workers = 1 + (t + round) % 4;
        const Answer a = engine.run(whole);
        if (whole.kind == QueryKind::Spectrum ? a.spectrum.counts != truth.spectrum.counts
                                              : a.omega != truth.omega)
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(observer.stop()) << "a per-query cap leaked into the global worker count";
}

TEST(ConcurrentQueries, GlobalWorkerCountUntouchedThroughoutRun) {
  // Four threads split the worker pool between them the way a caller
  // sharing one machine would: each caps its own counts at a quarter of
  // the global count. The split stays per thread; the global count never
  // shows the reduced value.
  const Graph g = social_like(250, 2000, 0.4, 23);
  const GroundTruth truth(g, {});
  const PreparedGraph engine(g, {});
  engine.prepare();
  const int share = std::max(1, num_workers() / 4);
  GlobalWorkerObserver observer;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        for (int k = 3; k <= 5; ++k) {
          Query q;
          q.kind = QueryKind::Count;
          q.k = k;
          q.opts.max_workers = share;
          if (engine.run(q).count != truth.counts[k - 3]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(observer.stop()) << "a per-thread split leaked into the global worker count";
}

TEST(ConcurrentQueries, PerQueryWorkerCapsRespected) {
  // Each query carries its own cap (1..3); three threads run them at once.
  // Every capped count is the uncapped one, and the global count is intact
  // afterwards.
  const Graph g = erdos_renyi(180, 1400, 27);
  const PreparedGraph engine(g, {});
  const count_t c4 = engine.count(4).count;
  const int before = num_workers();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < 6; i += 3) {
        Query q;
        q.kind = QueryKind::Count;
        q.k = 4;
        q.opts.max_workers = 1 + (i % 3);
        const Answer a = engine.run(q);
        if (a.count != c4 || a.k != 4) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(num_workers(), before);
}

TEST(ConcurrentQueries, CappedQueriesOnTwoEnginesRestoreWorkerCap) {
  // Two engines over one graph, each driven by its own thread with capped
  // counts for k = 3..6: the caps must not interleave into a save/restore
  // race that leaves the process at one thread's cap.
  const Graph g = erdos_renyi(150, 1100, 21);
  const PreparedGraph e1(g, {});
  const PreparedGraph e2(g, {});
  const count_t expect4 = e1.count(4).count;
  const int before = num_workers();

  auto run_counts = [](const PreparedGraph& engine, count_t& out) {
    for (int k = 3; k <= 6; ++k) {
      Query q;
      q.kind = QueryKind::Count;
      q.k = k;
      q.opts.max_workers = 2;
      const count_t c = engine.run(q).count;
      if (k == 4) out = c;
    }
  };
  count_t a_count = 0, b_count = 0;
  std::thread a([&] { run_counts(e1, a_count); });
  std::thread b([&] { run_counts(e2, b_count); });
  a.join();
  b.join();

  EXPECT_EQ(num_workers(), before) << "worker cap corrupted by racing capped queries";
  EXPECT_EQ(a_count, expect4);
  EXPECT_EQ(b_count, expect4);
}

}  // namespace
}  // namespace c3
