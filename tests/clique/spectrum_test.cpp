// Tests for the clique spectrum: every clique size counted by one pivot pass.
#include "clique/spectrum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "clique/max_clique.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

TEST(Spectrum, CompleteGraphIsPascalRow) {
  const CliqueSpectrum s = clique_spectrum(complete_graph(10));
  ASSERT_EQ(s.omega, 10u);
  ASSERT_EQ(s.counts.size(), 11u);
  for (count_t k = 1; k <= 10; ++k) EXPECT_EQ(s.counts[k], binomial(10, k)) << "k=" << k;
}

TEST(Spectrum, MatchesPerKCounts) {
  const Graph g = social_like(200, 1500, 0.45, 17);
  const CliqueSpectrum s = clique_spectrum(g);
  EXPECT_EQ(s.omega, max_clique_size(g));
  for (int k = 1; k <= static_cast<int>(s.omega); ++k) {
    EXPECT_EQ(s.counts[static_cast<std::size_t>(k)], count_cliques(g, k).count) << "k=" << k;
  }
}

TEST(Spectrum, RespectsKmaxCap) {
  const Graph g = complete_graph(12);
  const CliqueSpectrum s = clique_spectrum(g, 5);
  EXPECT_EQ(s.omega, 5u);
  EXPECT_EQ(s.counts.size(), 6u);
  EXPECT_EQ(s.counts[5], binomial(12, 5));
}

TEST(Spectrum, TriangleFreeStopsAtTwo) {
  const CliqueSpectrum s = clique_spectrum(hypercube(6));
  EXPECT_EQ(s.omega, 2u);
  EXPECT_EQ(s.counts[1], 64u);
  EXPECT_EQ(s.counts[2], 64u * 6 / 2);
}

TEST(Spectrum, EmptyAndEdgelessGraphs) {
  EXPECT_EQ(clique_spectrum(Graph{}).omega, 0u);
  const CliqueSpectrum s = clique_spectrum(build_graph(EdgeList{}, 7));
  EXPECT_EQ(s.omega, 1u);
  EXPECT_EQ(s.counts[1], 7u);
}

TEST(Spectrum, OptionsAreHonored) {
  const Graph g = erdos_renyi(60, 450, 23);
  CliqueOptions no_prune;  // a search-only option the pivot pass ignores
  no_prune.distance_pruning = false;
  CliqueOptions approx;
  approx.vertex_order = VertexOrderKind::ApproxDegeneracy;
  const CliqueSpectrum base = clique_spectrum(g);
  const CliqueSpectrum with_no_prune = clique_spectrum(g, 0, no_prune);
  const CliqueSpectrum with_approx = clique_spectrum(g, 0, approx);
  EXPECT_EQ(base.counts, with_no_prune.counts);
  EXPECT_EQ(base.counts, with_approx.counts);
}

TEST(Spectrum, UnimodalOnRandomGraphs) {
  // Clique counts per size are unimodal for these families — a cheap sanity
  // property that catches off-by-one k plumbing.
  const Graph g = bio_like(200, 900, 10, 16, 0.7, 31);
  const CliqueSpectrum s = clique_spectrum(g);
  bool decreasing = false;
  for (std::size_t k = 2; k < s.counts.size(); ++k) {
    if (s.counts[k] < s.counts[k - 1]) decreasing = true;
    if (decreasing) {
      ASSERT_LE(s.counts[k], s.counts[k - 1]) << "k=" << k;
    }
  }
}

// Each engine's spectrum against its own per-k counts, and all five engines
// against each other (spectrum_test's share of the agreement coverage).

TEST(Spectrum, EveryEngineAgreesOnASocialGraph) {
  const testing::PoolScope pool;
  const CliqueSpectrum s = testing::expect_spectrum_agreement(
      social_like(150, 1100, 0.45, 77), 0, "social_like");
  EXPECT_GE(s.omega, 5u);
}

TEST(Spectrum, EveryEngineAgreesUnderAKmaxCap) {
  const testing::PoolScope pool;
  const Graph g = planted_clique(90, 300, 11, 5, nullptr);
  for (const int kmax : {3, 6, 11, 12}) {
    const CliqueSpectrum s =
        testing::expect_spectrum_agreement(g, kmax, "kmax=" + std::to_string(kmax));
    EXPECT_EQ(s.omega, static_cast<node_t>(std::min(kmax, 11))) << "kmax=" << kmax;
  }
}

TEST(Spectrum, EveryEngineAgreesOnDegenerateGraphs) {
  const testing::PoolScope pool;
  EXPECT_EQ(testing::expect_spectrum_agreement(Graph{}, 0, "empty").omega, 0u);
  EXPECT_EQ(testing::expect_spectrum_agreement(build_graph(EdgeList{}, 9), 0, "edgeless").omega,
            1u);
  EXPECT_EQ(testing::expect_spectrum_agreement(hypercube(5), 0, "triangle-free").omega, 2u);
}

TEST(Spectrum, EveryEngineAgreesWhenRowsSpanSeveralWords) {
  // Out-degrees above 64 put each local graph row over several words.
  const testing::PoolScope pool;
  const Graph g = erdos_renyi(140, 6200, 13);
  CliqueOptions opts;
  const PreparedGraph engine(g, opts);
  Query q;
  q.kind = QueryKind::Spectrum;
  ASSERT_GT(engine.run(q).stats.gamma, 64u);
  (void)testing::expect_spectrum_agreement(g, 0, "dense erdos_renyi");
}

}  // namespace
}  // namespace c3
