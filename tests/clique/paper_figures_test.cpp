// Golden tests replaying the paper's worked examples (Figures 1-6 and the
// Observations of Section 3).
#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/combinatorics.hpp"
#include "graph/digraph.hpp"
#include "graph/gen/generators.hpp"
#include "graph/gen/paper_examples.hpp"
#include "triangle/communities.hpp"

namespace c3 {
namespace {

Digraph orient_by_id(const Graph& g) {
  std::vector<node_t> order(g.num_nodes());
  for (node_t v = 0; v < g.num_nodes(); ++v) order[v] = v;
  return Digraph::orient(g, order);
}

/// Computes R^E_c(G): edges whose endpoints have at least c vertices of the
/// whole universe ordered between them (id order).
std::vector<Edge> relevant_edges(const Graph& g, node_t c) {
  std::vector<Edge> out;
  for (const Edge& e : g.endpoints()) {
    if (e.v - e.u - 1 >= c) out.push_back(e);
  }
  return out;
}

TEST(PaperFigures, Figure1EdgeSupportsSixClique) {
  // "In the example, the community of the edge {v1, v2} contains all the
  // other vertices ... Indeed, the edge {v1, v2} does support a 6-clique."
  const Graph g = figure1_graph();
  // Community in the undirected sense: common neighborhood.
  std::vector<node_t> common;
  for (node_t w = 0; w < 6; ++w) {
    if (w != 0 && w != 1 && g.has_edge(0, w) && g.has_edge(1, w)) common.push_back(w);
  }
  EXPECT_EQ(common, (std::vector<node_t>{2, 3, 4, 5}));
  EXPECT_EQ(count_cliques(g, 6).count, 1u);
}

TEST(PaperFigures, Figure2OnlyOneRelevantSupportingEdge) {
  // "only the edge (v1, v6) could support a 6-clique using this pruning
  // rule" — the unique pair with >= 4 vertices ordered between.
  const Graph g = figure2_graph();
  const auto relevant = relevant_edges(g, 4);
  ASSERT_EQ(relevant.size(), 1u);
  EXPECT_EQ(relevant[0].u, 0u);
  EXPECT_EQ(relevant[0].v, 5u);
}

TEST(PaperFigures, Figure3TwoFiveCliquesNoSixClique) {
  // "the graph only contains two 5-cliques and no 6-clique because there is
  // no edge (v3, v4)."
  const Graph g = figure2_graph();
  CliqueOptions byid;
  byid.vertex_order = VertexOrderKind::ById;  // match the drawn order
  EXPECT_EQ(count_cliques(g, 6, byid).count, 0u);
  EXPECT_EQ(count_cliques(g, 5, byid).count, 2u);
}

TEST(PaperFigures, Figure3RecursionProbesTheV2V5Pair) {
  // Replay Figure 3(b): inside the community {v2..v5} of (v1, v6), the only
  // pair at distance >= 2 is (v2, v5), which is an edge, and the recursion
  // then fails on the missing (v3, v4).
  const Graph g = figure2_graph();
  const Digraph dag = orient_by_id(g);
  const EdgeCommunities comms = EdgeCommunities::build(dag);
  const edge_t e16 = dag.arc_id(0, 5);
  const auto members = comms.members(e16);
  ASSERT_EQ(members.size(), 4u);
  // Pairs of members with >= 2 members between them: only (members[0],
  // members[3]) = (v2, v5).
  EXPECT_EQ(members[0], 1u);
  EXPECT_EQ(members[3], 4u);
  EXPECT_TRUE(g.has_edge(1, 4));
  EXPECT_FALSE(g.has_edge(2, 3));  // the missing (v3, v4)
}

TEST(PaperFigures, Figure4RelevantEdgesAndPairs) {
  // R^E_3(G) = {(v1,v5), (v1,v6)}; R^P_3 additionally contains (v2,v6).
  const Graph g = figure4_graph();
  const auto relevant = relevant_edges(g, 3);
  ASSERT_EQ(relevant.size(), 2u);
  EXPECT_EQ(relevant[0].u, 0u);
  EXPECT_EQ(relevant[0].v, 4u);
  EXPECT_EQ(relevant[1].u, 0u);
  EXPECT_EQ(relevant[1].v, 5u);
  // The pair (v2, v6) is relevant but not an edge.
  EXPECT_FALSE(g.has_edge(1, 5));
  EXPECT_GE(5u - 1u - 1u, 3u);
}

TEST(PaperFigures, Figure5RelevantVertexSets) {
  // P+_3({v1..v6}) = {v1, v2}, P-_3 = {v5, v6}: Observation 3 with |V|=6,
  // c=3 gives 2 relevant out-vertices.
  EXPECT_EQ(relevant_vertex_count(6, 3), 2u);
  // And Observation 4: |R^P_3| = C(3, 2) = 3 pairs.
  EXPECT_EQ(relevant_pair_count(6, 3), 3u);
}

TEST(PaperFigures, Observation3And4ClosedForms) {
  for (count_t n = 0; n <= 30; ++n) {
    for (count_t c = 0; c <= 10; ++c) {
      // Brute-force count over positions 0..n-1.
      count_t pairs = 0, outs = 0;
      for (count_t u = 0; u < n; ++u) {
        bool is_out = false;
        for (count_t v = u + 1; v < n; ++v) {
          if (v - u - 1 >= c) {
            ++pairs;
            is_out = true;
          }
        }
        outs += is_out ? 1 : 0;
      }
      ASSERT_EQ(relevant_pair_count(n, c), pairs) << n << " " << c;
      ASSERT_EQ(relevant_vertex_count(n, c), outs) << n << " " << c;
    }
  }
}

TEST(PaperFigures, Observation1SupportingEdgeUnique) {
  // For the K6 of Figure 1 under the id order: the 6-clique's supporting
  // edge is (v1, v6) and its community holds the other four vertices; every
  // other edge has a smaller community.
  const Graph g = figure1_graph();
  const Digraph dag = orient_by_id(g);
  const EdgeCommunities comms = EdgeCommunities::build(dag);
  for (edge_t e = 0; e < dag.num_arcs(); ++e) {
    if (dag.arc_source(e) == 0 && dag.arc_target(e) == 5) {
      EXPECT_EQ(comms.size(e), 4u);
    } else {
      EXPECT_LT(comms.size(e), 4u);
    }
  }
}

TEST(PaperFigures, CliqueSizeBounds) {
  // Section 1.1: an s-degenerate graph has no (s+2)-clique; k <= sigma + 2.
  const Graph g = figure2_graph();  // K6 minus one edge: s = 4
  EXPECT_EQ(count_cliques(g, 6).count, 0u);
  EXPECT_GT(count_cliques(g, 5).count, 0u);
}

}  // namespace
}  // namespace c3
