// Tests for the ArbCount baseline (Shi et al.).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

const CliqueOptions kArbCount{.algorithm = Algorithm::ArbCount};

TEST(ArbCount, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, kArbCount).count, binomial(11, k)) << "k=" << k;
  }
}

TEST(ArbCount, MatchesBruteForce) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k, kArbCount).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(ArbCount, DefaultsToApproxOrderButAgreesWithExact) {
  const Graph g = social_like(250, 1800, 0.4, 41);
  CliqueOptions exact = kArbCount;
  exact.vertex_order = VertexOrderKind::ExactDegeneracy;
  for (int k = 4; k <= 6; ++k) {
    const CliqueResult def = count_cliques(g, k, kArbCount);
    const CliqueResult ex = count_cliques(g, k, exact);
    EXPECT_EQ(def.count, ex.count) << "k=" << k;
    // The approximate order may not beat the exact one but must respect the
    // (2+eps) guarantee relative to it.
    EXPECT_LE(def.stats.order_quality,
              static_cast<node_t>(2.5 * static_cast<double>(ex.stats.order_quality)) + 1);
  }
}

TEST(ArbCount, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 43);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback(), kArbCount);
    EXPECT_EQ(r.count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }
}

TEST(ArbCount, LargeLocalUniverseCrossesWordBoundaries) {
  // Force out-neighborhoods above 64/128 vertices to cover multi-word masks.
  const Graph g = complete_graph(140);
  EXPECT_EQ(count_cliques(g, 4, kArbCount).count, binomial(140, 4));
}

TEST(ArbCount, PositionPruneProbesOnePairPerLevel) {
  // On K_k only the lowest vertex has k - 1 out-neighbours, and at every
  // level only the first candidate has enough candidates above it: one
  // intersection per level c = k - 1 .. 2. Without the prune each level
  // probes all of its c candidates, k(k - 1)/2 - 1 in total.
  for (int k = 3; k <= 10; ++k) {
    const CliqueResult r = count_cliques(complete_graph(static_cast<node_t>(k)), k, kArbCount);
    EXPECT_EQ(r.count, 1u) << "k=" << k;
    EXPECT_EQ(r.stats.pairs_probed, static_cast<count_t>(k - 2)) << "k=" << k;
    EXPECT_EQ(r.stats.leaf_work, 1u) << "k=" << k;
  }
}

/// Every k-clique of `g` by brute force, with the per-vertex and per-edge
/// counts they add up to.
struct BruteTallies {
  std::set<std::vector<node_t>> cliques;
  std::vector<count_t> vertex, edge;

  BruteTallies(const Graph& g, int k) : vertex(g.num_nodes(), 0), edge(g.num_edges(), 0) {
    (void)brute_force_list(g, k, [&](std::span<const node_t> clique) {
      std::vector<node_t> sorted(clique.begin(), clique.end());
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        ++vertex[sorted[i]];
        for (std::size_t j = i + 1; j < sorted.size(); ++j)
          ++edge[g.edge_id(sorted[i], sorted[j])];
      }
      cliques.insert(std::move(sorted));
      return true;
    });
  }
};

/// K_k, K_{k+1} and K_{k+2} minus a maximum matching, side by side: the
/// top vertex of K_k has exactly k - 1 candidates (the prune's boundary),
/// K_{k+1}'s one more, and the matching leaves candidates that fall short
/// at every level.
Graph prune_boundary_graph(int k) {
  EdgeList edges;
  node_t base = 0;
  const auto add_block = [&](int size, bool minus_matching) {
    for (int a = 0; a < size; ++a) {
      for (int b = a + 1; b < size; ++b) {
        if (minus_matching && a % 2 == 0 && b == a + 1) continue;
        edges.push_back({base + static_cast<node_t>(a), base + static_cast<node_t>(b)});
      }
    }
    base += static_cast<node_t>(size);
  };
  add_block(k, false);
  add_block(k + 1, false);
  add_block(k + 2, true);
  return build_graph(edges, base);
}

TEST(ArbCount, PositionPruneBoundaryMatchesBruteForce) {
  const testing::PoolScope pool;
  for (int k = 3; k <= 8; ++k) {
    const Graph g = prune_boundary_graph(k);
    const BruteTallies expect(g, k);
    const auto expect_count = static_cast<count_t>(expect.cliques.size());
    ASSERT_GT(expect_count, 0u) << "k=" << k;
    for (const Algorithm alg : {Algorithm::ArbCount, Algorithm::KCList}) {
      // kcList with a floor of 1 sends every counting and tally task down
      // its dense path, the vertex-growth recursion ArbCount runs.
      const testing::DenseFloorScope dense(alg == Algorithm::KCList ? 1 : 0);
      CliqueOptions opts;
      opts.algorithm = alg;
      const PreparedGraph engine(g, opts);
      const std::string where = std::string(algorithm_name(alg)) + " k=" + std::to_string(k);
      EXPECT_EQ(engine.count(k).count, expect_count) << where;
      testing::CliqueCollector collector(g, k);
      EXPECT_EQ(engine.list(k, collector.callback()).count, expect_count) << where;
      collector.expect_valid(expect_count);
      EXPECT_EQ(collector.cliques(), expect.cliques) << where;
      EXPECT_EQ(engine.per_vertex_counts(k), expect.vertex) << where;
      EXPECT_EQ(engine.per_edge_counts(k), expect.edge) << where;
    }
  }
}

TEST(ArbCount, TrivialSizesAndEmpty) {
  const Graph g = erdos_renyi(40, 100, 47);
  EXPECT_EQ(count_cliques(g, 1, kArbCount).count, 40u);
  EXPECT_EQ(count_cliques(g, 2, kArbCount).count, 100u);
  EXPECT_EQ(count_cliques(Graph{}, 5, kArbCount).count, 0u);
  EXPECT_EQ(count_cliques(grid_graph(8, 8), 3, kArbCount).count, 0u);
}

}  // namespace
}  // namespace c3
