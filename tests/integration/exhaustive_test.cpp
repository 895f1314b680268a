// Exhaustive differential testing on tiny graphs.
//
// Every one of the 2^10 = 1024 graphs on 5 vertices, and a randomized sweep
// of 8-vertex graphs, are counted by every algorithm/option combination and
// checked against brute force. Tiny universes hit all the boundary paths at
// once: empty candidate sets, single-word bitsets with partial last words,
// cliques equal to the whole graph, isolated vertices, and every parity of
// the recursion.
#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace c3 {
namespace {

Graph graph_from_mask(node_t n, std::uint32_t mask) {
  EdgeList edges;
  std::uint32_t bit = 0;
  for (node_t u = 0; u < n; ++u) {
    for (node_t v = u + 1; v < n; ++v, ++bit) {
      if (mask & (1u << bit)) edges.push_back(Edge{u, v});
    }
  }
  return build_graph(edges, n);
}

std::vector<CliqueOptions> option_matrix() {
  std::vector<CliqueOptions> out;
  for (const Algorithm alg : {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid,
                              Algorithm::KCList, Algorithm::ArbCount}) {
    CliqueOptions base;
    base.algorithm = alg;
    out.push_back(base);
  }
  CliqueOptions tri;
  tri.triangle_growth = true;
  out.push_back(tri);
  CliqueOptions noprune;
  noprune.distance_pruning = false;
  out.push_back(noprune);
  CliqueOptions cd_exact;  // c3List-CD's default edge order is Algorithm 4
  cd_exact.algorithm = Algorithm::C3ListCD;
  cd_exact.edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  out.push_back(cd_exact);
  CliqueOptions approx_order;
  approx_order.vertex_order = VertexOrderKind::ApproxDegeneracy;
  out.push_back(approx_order);
  return out;
}

TEST(Exhaustive, AllFiveVertexGraphsAllOptions) {
  const auto options = option_matrix();
  for (std::uint32_t mask = 0; mask < (1u << 10); ++mask) {
    const Graph g = graph_from_mask(5, mask);
    for (int k = 3; k <= 5; ++k) {
      const count_t expect = brute_force_count(g, k);
      for (std::size_t o = 0; o < options.size(); ++o) {
        ASSERT_EQ(count_cliques(g, k, options[o]).count, expect)
            << "mask=" << mask << " k=" << k << " option#" << o;
      }
    }
  }
}

TEST(Exhaustive, RandomEightVertexGraphsAllOptions) {
  const auto options = option_matrix();
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    const auto mask = static_cast<std::uint32_t>(rng.next_below(1u << 28));
    const Graph g = graph_from_mask(8, mask);
    for (int k = 3; k <= 8; ++k) {
      const count_t expect = brute_force_count(g, k);
      for (std::size_t o = 0; o < options.size(); ++o) {
        ASSERT_EQ(count_cliques(g, k, options[o]).count, expect)
            << "trial=" << trial << " k=" << k << " option#" << o;
      }
    }
  }
}

}  // namespace
}  // namespace c3
