// Tests for the kcList baseline (Danisch et al.).
#include <gtest/gtest.h>

#include <climits>
#include <vector>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

const CliqueOptions kKcList{.algorithm = Algorithm::KCList};

TEST(KCList, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, kKcList).count, binomial(11, k)) << "k=" << k;
  }
}

TEST(KCList, MatchesBruteForce) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k, kKcList).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(KCList, WorksWithApproximateOrderToo) {
  const Graph g = erdos_renyi(60, 500, 4);
  CliqueOptions approx = kKcList;
  approx.vertex_order = VertexOrderKind::ApproxDegeneracy;
  for (int k = 4; k <= 6; ++k) {
    EXPECT_EQ(count_cliques(g, k, approx).count, count_cliques(g, k, kKcList).count) << "k=" << k;
  }
}

TEST(KCList, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 31);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback(), kKcList);
    EXPECT_EQ(r.count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }
}

TEST(KCList, TrivialSizesAndEmpty) {
  const Graph g = erdos_renyi(40, 100, 37);
  EXPECT_EQ(count_cliques(g, 1, kKcList).count, 40u);
  EXPECT_EQ(count_cliques(g, 2, kKcList).count, 100u);
  EXPECT_EQ(count_cliques(Graph{}, 5, kKcList).count, 0u);
  EXPECT_EQ(count_cliques(hypercube(5), 3, kKcList).count, 0u);
}

/// A sparse Erdős–Rényi graph next to a disjoint K40 (vertices 200..239):
/// out-neighbourhoods below and above the dense floor of 32 vertices. Its
/// k-clique count is the ER graph's plus C(40, k).
struct SparsePlusK40 {
  Graph er = erdos_renyi(200, 1200, 41);
  Graph g;
  SparsePlusK40() {
    EdgeList edges(er.endpoints().begin(), er.endpoints().end());
    for (node_t a = 200; a < 240; ++a) {
      for (node_t b = a + 1; b < 240; ++b) edges.push_back({a, b});
    }
    g = build_graph(edges, 240);
  }
};

/// The CSR sub-DAG path alone (the dense floor out of reach), on rows of
/// every width: counts, listing, both tallies and witnesses.
TEST(KCList, CsrPathAgreesOnSparseAndWideNeighbourhoods) {
  const testing::PoolScope pool;
  const testing::DenseFloorScope csr_only(INT_MAX);
  const SparsePlusK40 input;
  CliqueOptions opts;
  opts.algorithm = Algorithm::KCList;
  const PreparedGraph kc(input.g, opts);

  for (int k = 3; k <= 9; ++k) {
    const CliqueResult r = kc.count(k);
    EXPECT_EQ(r.count, brute_force_count(input.er, k) + binomial(40, k)) << "k=" << k;
    EXPECT_EQ(r.stats.leaf_work, r.count) << "k=" << k;
    EXPECT_EQ(r.stats.dense_subproblems, 0u) << "k=" << k;
  }
  ASSERT_NE(kc.dag_if_built(), nullptr);
  EXPECT_GT(kc.dag_if_built()->max_out_degree(), 32u);

  for (const int k : {3, 4, 38}) {
    const count_t expect = kc.count(k).count;
    testing::CliqueCollector collector(input.g, k);
    EXPECT_EQ(kc.list(k, collector.callback()).count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }

  // A K40 planted inside a denser ER graph: its out-neighbourhoods mix
  // clique and background vertices, so edges (and vertices) differ in
  // their counts and a tally credited to the wrong arc shows.
  const Graph planted = planted_clique(150, 2500, 40, 43);
  const PreparedGraph kc_planted(planted, opts);
  const PreparedGraph c3_planted(planted, {});
  for (const int k : {3, 5, 7}) {
    EXPECT_EQ(kc_planted.per_vertex_counts(k), c3_planted.per_vertex_counts(k)) << "k=" << k;
    EXPECT_EQ(kc_planted.per_edge_counts(k), c3_planted.per_edge_counts(k)) << "k=" << k;
  }

  for (const int k : {4, 40}) {
    const auto witness = kc.find_clique(k);
    ASSERT_TRUE(witness.has_value()) << "k=" << k;
    testing::CliqueCollector check(input.g, k);
    (void)check.callback()(*witness);
    check.expect_valid(1);
  }
  EXPECT_FALSE(kc.find_clique(41).has_value());
}

TEST(KCList, RejectsAbsurdK) {
  EXPECT_THROW((void)count_cliques(complete_graph(4), 300, kKcList), std::invalid_argument);
}

}  // namespace
}  // namespace c3
