// Tests for the pivot pass (clique/pivot.hpp): counts that do not fit in 64
// bits are refused, never wrapped; the clique number falls out of the pass;
// a budget or cancel keeps only the trivial sizes; the answer does not
// depend on the worker count.
#include "clique/pivot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "clique/api.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

/// Disjoint cliques K_a and K_b.
Graph two_cliques(node_t a, node_t b) {
  EdgeList edges;
  for (const auto& [first, size] : {std::pair{node_t{0}, a}, std::pair{a, b}}) {
    for (node_t i = 0; i < size; ++i) {
      for (node_t j = i + 1; j < size; ++j) edges.push_back({first + i, first + j});
    }
  }
  return build_graph(edges, a + b);
}

/// The message of the overflow_error a spectrum query throws, or "" if it
/// returns.
std::string overflow_message(const PreparedGraph& engine, int kmax) {
  try {
    (void)engine.spectrum(kmax);
  } catch (const std::overflow_error& e) {
    return e.what();
  }
  return "";
}

TEST(PivotSpectrum, CountsBeyond64BitsAreRefused) {
  // C(320, 10) + C(300, 10) fits in 64 bits; C(320, 11) alone does not.
  const Graph g = two_cliques(320, 300);
  for (const Algorithm alg : {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::ArbCount}) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    const CliqueSpectrum s = engine.spectrum(10);
    ASSERT_EQ(s.counts.size(), 11u) << algorithm_name(alg);
    EXPECT_EQ(s.counts[10], 4090168746105799786u) << algorithm_name(alg);
    EXPECT_EQ(s.counts[10], binomial(320, 10) + binomial(300, 10)) << algorithm_name(alg);
    for (const int kmax : {0, 11}) {
      const std::string message = overflow_message(engine, kmax);
      EXPECT_NE(message.find("overflow"), std::string::npos)
          << algorithm_name(alg) << " kmax=" << kmax << ": " << message;
      EXPECT_NE(message.find(" 11-cliques"), std::string::npos)
          << algorithm_name(alg) << " kmax=" << kmax << ": " << message;
    }
  }
}

TEST(PivotSpectrum, MaxCliqueSizeByproduct) {
  EXPECT_EQ(clique_spectrum(planted_clique(150, 300, 9, 3, nullptr)).omega, 9u);
  EXPECT_EQ(clique_spectrum(hypercube(4)).omega, 2u);
  EXPECT_EQ(clique_spectrum(two_cliques(70, 40), 5).omega, 5u);
}

TEST(PivotSpectrum, CutPassKeepsOnlyTrivialSizes) {
  const Graph g = social_like(300, 2600, 0.5, 8);
  const PreparedGraph engine(g, {});
  engine.prepare();
  Query q;
  q.kind = QueryKind::Spectrum;
  q.opts.cancel = std::make_shared<std::atomic<bool>>(true);
  const Answer a = engine.run(q);
  EXPECT_TRUE(a.truncated);
  ASSERT_EQ(a.spectrum.counts.size(), 3u);
  EXPECT_EQ(a.spectrum.counts[1], g.num_nodes());
  EXPECT_EQ(a.spectrum.counts[2], g.num_edges());
  EXPECT_EQ(a.spectrum.omega, 2u);
}

TEST(PivotSpectrum, WorkerCountDoesNotChangeTheAnswer) {
  const testing::PoolScope pool;
  const Graph g = social_like(400, 3600, 0.5, 7);
  const PreparedGraph engine(g, {});
  Query q;
  q.kind = QueryKind::Spectrum;
  q.opts.max_workers = 1;
  const Answer one = engine.run(q);
  q.opts.max_workers = 0;
  const Answer all = engine.run(q);
  EXPECT_EQ(one.spectrum.counts, all.spectrum.counts);
  EXPECT_EQ(one.stats.recursive_calls, all.stats.recursive_calls);
  EXPECT_EQ(one.stats.leaf_work, all.stats.leaf_work);
  EXPECT_GT(all.stats.leaf_work, 0u);
}

}  // namespace
}  // namespace c3
