// Tests for the community degeneracy orders (Section 4.3, Algorithm 4).
#include "order/community_degeneracy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/digraph.hpp"
#include "graph/gen/generators.hpp"
#include "order/degeneracy.hpp"
#include "parallel/parallel.hpp"
#include "triangle/triangle_count.hpp"

namespace c3 {
namespace {

count_t triangles_of(const Graph& g) {
  std::vector<node_t> order(g.num_nodes());
  for (node_t v = 0; v < g.num_nodes(); ++v) order[v] = v;
  return count_triangles(Digraph::orient(g, order));
}

TEST(CommunityDegeneracy, KnownValues) {
  // Hypercube: degeneracy d but sigma = 0 (no triangles) — the paper's
  // flagship separation example (Section 1.1).
  EXPECT_EQ(community_degeneracy(hypercube(5)), 0u);
  // K_n: every edge sits in n-2 triangles in every K-subgraph.
  EXPECT_EQ(community_degeneracy(complete_graph(6)), 4u);
  EXPECT_EQ(community_degeneracy(complete_graph(3)), 1u);
  // Triangle-free families.
  EXPECT_EQ(community_degeneracy(grid_graph(6, 6)), 0u);
  EXPECT_EQ(community_degeneracy(star_graph(40)), 0u);
  EXPECT_EQ(community_degeneracy(cycle_graph(10)), 0u);
}

TEST(CommunityDegeneracy, BipartitePlusLineHasTinySigma) {
  // Section 1.1: degeneracy Theta(n) but community degeneracy <= 2 (cross
  // edges always have at most two path-neighbors in their community).
  const Graph g = bipartite_plus_line(16);
  const node_t s = degeneracy_order(g).degeneracy;
  const node_t sigma = community_degeneracy(g);
  EXPECT_GE(s, 15u);
  EXPECT_LE(sigma, 2u);
}

TEST(CommunityDegeneracy, SigmaStrictlyBelowDegeneracy) {
  // The paper: sigma < s whenever the graph has an edge (k <= sigma+2 <= s+1).
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = social_like(500, 3500, 0.4, seed);
    if (g.num_edges() == 0) continue;
    EXPECT_LT(community_degeneracy(g), degeneracy_order(g).degeneracy) << "seed " << seed;
  }
}

TEST(CommunityDegeneracy, Observation5TriangleBound) {
  // A graph with community degeneracy sigma has at most sigma * m triangles.
  for (const std::uint64_t seed : {5, 6}) {
    const Graph g = bio_like(400, 1500, 12, 18, 0.5, seed);
    const count_t t = triangles_of(g);
    const node_t sigma = community_degeneracy(g);
    EXPECT_LE(t, static_cast<count_t>(sigma) * g.num_edges()) << "seed " << seed;
  }
}

void check_order_and_candidates(const Graph& g, const EdgeOrderResult& r, node_t candidate_bound) {
  const edge_t m = g.num_edges();
  ASSERT_EQ(r.order.size(), m);
  ASSERT_EQ(r.pos.size(), m);
  // pos is the inverse permutation of order.
  std::vector<bool> seen(m, false);
  for (edge_t i = 0; i < m; ++i) {
    const edge_t e = r.order[i];
    ASSERT_LT(e, m);
    ASSERT_FALSE(seen[e]);
    seen[e] = true;
    ASSERT_EQ(r.pos[e], i);
  }

  // Candidate sets: (a) every member forms a triangle whose two other edges
  // are ordered after e; (b) sizes respect the bound; (c) the total equals
  // the triangle count (each triangle charged exactly once).
  const auto endpoints = g.endpoints();
  count_t total = 0;
  for (edge_t e = 0; e < m; ++e) {
    const auto cand = r.candidates(e);
    ASSERT_LE(cand.size(), candidate_bound) << "edge " << e;
    ASSERT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    total += cand.size();
    for (const node_t w : cand) {
      const edge_t f = g.edge_id(endpoints[e].u, w);
      const edge_t h = g.edge_id(endpoints[e].v, w);
      ASSERT_NE(f, static_cast<edge_t>(-1));
      ASSERT_NE(h, static_cast<edge_t>(-1));
      ASSERT_GT(r.pos[f], r.pos[e]);
      ASSERT_GT(r.pos[h], r.pos[e]);
    }
  }
  EXPECT_EQ(total, triangles_of(g));
}

TEST(CommunityDegeneracy, ExactOrderInvariants) {
  const Graph g = bio_like(300, 1200, 10, 15, 0.5, 11);
  const EdgeOrderResult r = community_degeneracy_order(g);
  check_order_and_candidates(g, r, r.sigma);
}

TEST(CommunityDegeneracy, ApproxOrderInvariantsAndLemma44) {
  const Graph g = bio_like(300, 1200, 10, 15, 0.5, 12);
  const node_t sigma = community_degeneracy(g);
  const double eps = 0.5;
  const EdgeOrderResult r = approx_community_degeneracy_order(g, eps);
  // Lemma 4.4: every candidate set has size at most (3 + eps) * sigma.
  const auto bound = static_cast<node_t>((3.0 + eps) * static_cast<double>(sigma)) + 1;
  check_order_and_candidates(g, r, bound);
  EXPECT_LE(r.sigma, bound);
  EXPECT_GT(r.rounds, 0u);
}

TEST(CommunityDegeneracy, ApproxRoundsLogarithmic) {
  const Graph g = social_like(2000, 16'000, 0.4, 13);
  const EdgeOrderResult r = approx_community_degeneracy_order(g, 0.5);
  EXPECT_LT(r.rounds, 200u);  // O(log_{1+eps/3} m), generous allowance
}

/// Both orders built at 1 worker and at a pool of 4 must agree field by
/// field (their candidate CSRs are filled in parallel), and each must pass
/// the invariant check: sets <= sigma for the exact order, <= (3 + eps)
/// sigma (Lemma 4.4) for Algorithm 4.
void expect_identical_at_any_worker_count(const Graph& g) {
  const double eps = 0.5;
  const auto build = [&](bool exact, int workers) {
    const int original = set_num_workers(workers);
    EdgeOrderResult r = exact ? community_degeneracy_order(g)
                              : approx_community_degeneracy_order(g, eps);
    set_num_workers(original);
    return r;
  };
  node_t sigma = 0;
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact order" : "Algorithm 4");
    const EdgeOrderResult serial = build(exact, 1);
    const EdgeOrderResult pooled = build(exact, 4);
    EXPECT_TRUE(std::ranges::equal(serial.order.span(), pooled.order.span()));
    EXPECT_TRUE(std::ranges::equal(serial.pos.span(), pooled.pos.span()));
    EXPECT_TRUE(std::ranges::equal(serial.candidate_offsets.span(),
                                   pooled.candidate_offsets.span()));
    EXPECT_TRUE(std::ranges::equal(serial.candidate_members.span(),
                                   pooled.candidate_members.span()));
    EXPECT_EQ(serial.sigma, pooled.sigma);
    EXPECT_EQ(serial.rounds, pooled.rounds);
    if (exact) sigma = serial.sigma;
    const node_t bound =
        exact ? sigma : static_cast<node_t>((3.0 + eps) * static_cast<double>(sigma)) + 1;
    check_order_and_candidates(g, serial, bound);
    check_order_and_candidates(g, pooled, bound);
  }
}

TEST(CommunityDegeneracy, OrdersIdenticalAtAnyWorkerCount) {
  // A hub-heavy social graph: skewed per-edge work across the pool.
  expect_identical_at_any_worker_count(social_like(3000, 24'000, 0.4, 17));

  // Two disjoint cliques of 60 and 64 vertices over a sparse social base,
  // the shape of perfbench's dense_blocks at a fifth of its size: one
  // Algorithm 4 round peels nearly every triangle.
  const Graph base = social_like(300, 1200, 0.4, 18);
  EdgeList edges(base.endpoints().begin(), base.endpoints().end());
  for (node_t i = 0; i < 60; ++i)
    for (node_t j = i + 1; j < 60; ++j) edges.push_back({3 * i, 3 * j});
  for (node_t i = 0; i < 64; ++i)
    for (node_t j = i + 1; j < 64; ++j) edges.push_back({3 * i + 1, 3 * j + 1});
  expect_identical_at_any_worker_count(build_graph(edges, 300));
}

TEST(CommunityDegeneracy, ExactSigmaIsMaxMinOverPeel) {
  // Cross-check sigma against a brute-force max-min computation on a small
  // graph: repeatedly remove the min-support edge, tracking the max.
  const Graph g = erdos_renyi(40, 200, 21);
  const node_t sigma = community_degeneracy(g);

  // Brute force: simulate greedy peeling with recomputation.
  std::vector<bool> removed(g.num_edges(), false);
  const auto endpoints = g.endpoints();
  auto support = [&](edge_t e) {
    node_t cnt = 0;
    for (const node_t w : g.neighbors(endpoints[e].u)) {
      if (!g.has_edge(endpoints[e].v, w)) continue;
      const edge_t f = g.edge_id(endpoints[e].u, w);
      const edge_t h = g.edge_id(endpoints[e].v, w);
      if (!removed[f] && !removed[h]) ++cnt;
    }
    return cnt;
  };
  node_t brute = 0;
  for (edge_t step = 0; step < g.num_edges(); ++step) {
    edge_t best = static_cast<edge_t>(-1);
    node_t best_support = 0;
    for (edge_t e = 0; e < g.num_edges(); ++e) {
      if (removed[e]) continue;
      const node_t sup = support(e);
      if (best == static_cast<edge_t>(-1) || sup < best_support) {
        best = e;
        best_support = sup;
      }
    }
    brute = std::max(brute, best_support);
    removed[best] = true;
  }
  EXPECT_EQ(sigma, brute);
}

TEST(CommunityDegeneracy, EmptyAndEdgelessGraphs) {
  EXPECT_EQ(community_degeneracy(Graph{}), 0u);
  const EdgeOrderResult r = community_degeneracy_order(build_graph(EdgeList{}, 5));
  EXPECT_TRUE(r.order.empty());
  EXPECT_EQ(r.sigma, 0u);
}

TEST(CommunityDegeneracy, ApproxRejectsBadEps) {
  EXPECT_THROW((void)approx_community_degeneracy_order(complete_graph(4), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace c3
