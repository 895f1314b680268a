// Tests for the Section 4.2 hybrid scheme.
#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

const CliqueOptions kHybrid{.algorithm = Algorithm::Hybrid};

TEST(Hybrid, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, kHybrid).count, binomial(11, k)) << "k=" << k;
  }
  EXPECT_EQ(count_cliques(g, 12, kHybrid).count, 0u);
}

TEST(Hybrid, MatchesBruteForce) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k, kHybrid).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(Hybrid, OddAndEvenKBothWork) {
  // The hybrid searches (k-1)-cliques per vertex, exercising both parities
  // of the recursion (pair-growth plus the c=1/c=2 leaves).
  const Graph g = social_like(150, 1100, 0.45, 7);
  for (int k = 3; k <= 8; ++k) {
    EXPECT_EQ(count_cliques(g, k, kHybrid).count, brute_force_count(g, k)) << "k=" << k;
  }
}

TEST(Hybrid, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 19);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback(), kHybrid);
    EXPECT_EQ(r.count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }
}

TEST(Hybrid, TrivialSizes) {
  const Graph g = erdos_renyi(60, 180, 23);
  EXPECT_EQ(count_cliques(g, 1, kHybrid).count, 60u);
  EXPECT_EQ(count_cliques(g, 2, kHybrid).count, 180u);
  EXPECT_EQ(count_cliques(Graph{}, 5, kHybrid).count, 0u);
}

TEST(Hybrid, StatsReportApproxOrderQuality) {
  const Graph g = social_like(400, 3000, 0.4, 29);
  const CliqueResult r = count_cliques(g, 5, kHybrid);
  EXPECT_GT(r.stats.order_quality, 0u);
  EXPECT_EQ(r.stats.top_level_tasks, g.num_nodes());
}

}  // namespace
}  // namespace c3
