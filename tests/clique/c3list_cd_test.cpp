// Tests for Algorithm 3 (community-degeneracy parameterized listing).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

CliqueOptions exact_opts() {
  CliqueOptions o;
  o.algorithm = Algorithm::C3ListCD;
  o.edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  return o;
}

CliqueOptions approx_opts() {
  CliqueOptions o;
  o.algorithm = Algorithm::C3ListCD;
  o.edge_order = EdgeOrderKind::ApproxCommunityDegeneracy;
  return o;
}

TEST(C3ListCD, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, exact_opts()).count, binomial(11, k)) << "k=" << k;
    EXPECT_EQ(count_cliques(g, k, approx_opts()).count, binomial(11, k)) << "k=" << k;
  }
}

TEST(C3ListCD, MatchesBruteForceBothOrders) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      const count_t expect = brute_force_count(g, k);
      EXPECT_EQ(count_cliques(g, k, exact_opts()).count, expect)
          << "exact seed " << seed << " k " << k;
      EXPECT_EQ(count_cliques(g, k, approx_opts()).count, expect)
          << "approx seed " << seed << " k " << k;
    }
  }
}

TEST(C3ListCD, CandidateSetsBoundedBySigma) {
  const Graph g = bio_like(300, 1200, 10, 14, 0.5, 4);
  const CliqueResult r = count_cliques(g, 5, exact_opts());
  // Theorem 4.3: gamma here is bounded by the exact sigma.
  EXPECT_LE(r.stats.gamma, r.stats.order_quality);
}

TEST(C3ListCD, TrivialAndEdgeCases) {
  const Graph g = erdos_renyi(50, 150, 9);
  EXPECT_EQ(count_cliques(g, 1, exact_opts()).count, 50u);
  EXPECT_EQ(count_cliques(g, 2, exact_opts()).count, 150u);
  EXPECT_EQ(count_cliques(Graph{}, 4, exact_opts()).count, 0u);
  EXPECT_EQ(count_cliques(hypercube(5), 3, exact_opts()).count, 0u);
}

TEST(C3ListCD, K3EqualsTriangles) {
  const Graph g = social_like(300, 2000, 0.4, 5);
  EXPECT_EQ(count_cliques(g, 3, exact_opts()).count, brute_force_count(g, 3));
  EXPECT_EQ(count_cliques(g, 3, approx_opts()).count, brute_force_count(g, 3));
}

TEST(C3ListCD, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 11);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    for (const auto& opts : {exact_opts(), approx_opts()}) {
      testing::CliqueCollector collector(g, k);
      const CliqueResult r = list_cliques(g, k, collector.callback(), opts);
      EXPECT_EQ(r.count, expect) << "k=" << k;
      collector.expect_valid(expect);
    }
  }
}

TEST(C3ListCD, SharedCliquesAcrossManyEdgesCountedOnce) {
  // Overlapping cliques stress the "lowest edge owns the clique" rule.
  const Graph g = collaboration_like(120, 80, 10, 13);
  for (int k = 4; k <= 6; ++k) {
    EXPECT_EQ(count_cliques(g, k, exact_opts()).count, brute_force_count(g, k)) << "k=" << k;
  }
}

TEST(C3ListCD, PrecomputedOrderReuse) {
  // One prepared edge order serves every k, and it is the exact order.
  const Graph g = erdos_renyi(40, 250, 17);
  const PreparedGraph engine(g, exact_opts());
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(engine.count(k).count, brute_force_count(g, k)) << "k=" << k;
  }
  const EdgeOrderResult* order = engine.edge_order_if_built();
  ASSERT_NE(order, nullptr);
  EXPECT_TRUE(std::ranges::equal(order->order, community_degeneracy_order(g).order));
}

TEST(C3ListCD, TopLevelTasksAreTheQualifyingEdges) {
  // Algorithm 3, line 3: one search per edge with |V'(e)| >= k - 2, however
  // the edges are grouped into tasks.
  const Graph g = complete_graph(12);
  for (const auto& [opts, order] :
       {std::pair{exact_opts(), community_degeneracy_order(g)},
        std::pair{approx_opts(), approx_community_degeneracy_order(g, approx_opts().eps)}}) {
    for (int k = 3; k <= 13; ++k) {
      count_t qualifying = 0;
      for (edge_t e = 0; e < g.num_edges(); ++e) {
        if (order.candidate_count(e) >= static_cast<node_t>(k - 2)) ++qualifying;
      }
      EXPECT_EQ(count_cliques(g, k, opts).stats.top_level_tasks, qualifying) << "k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Wide universes and edge ownership. Each edge belongs to its lower-degree
// endpoint (ties to the lower id), and c3List-CD searches one source vertex
// u at a time over G[U(u)], the union of V'(e) over u's owned edges, with
// local ids in decreasing edge-order position of the edge to u. Every V'(e)
// is a masked prefix of U(u), and G[U(u)] gains its edges during the sweep
// over u's edges, so the masks, the prefix windows, the incremental
// adjacency and the aggregation slots must be right across word boundaries.

/// Appends the edges of a clique over `members`.
void add_clique(EdgeList& edges, const std::vector<node_t>& members) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) edges.push_back({members[i], members[j]});
  }
}

constexpr node_t kBaseNodes = 200;

/// A sparse social_like graph on ids 0 .. kBaseNodes - 1.
EdgeList base_edges() {
  const Graph base = social_like(kBaseNodes, 900, 0.4, 17);
  EdgeList edges;
  for (node_t u = 0; u < base.num_nodes(); ++u) {
    for (const node_t v : base.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

/// The sparse base's k-cliques.
count_t base_cliques(int k) {
  CliqueOptions opts;
  opts.algorithm = Algorithm::KCList;
  const Graph base = build_graph(base_edges(), kBaseNodes);
  return PreparedGraph(base, opts).count(k).count;
}

struct Variant {
  std::string name;
  EdgeOrderKind edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  bool distance_pruning = true;
};

void PrintTo(const Variant& variant, std::ostream* os) { *os << variant.name; }

CliqueOptions variant_opts(const Variant& variant) {
  CliqueOptions o;
  o.algorithm = Algorithm::C3ListCD;
  o.edge_order = variant.edge_order;
  o.distance_pruning = variant.distance_pruning;
  return o;
}

/// The edge order an engine with `opts` prepares.
EdgeOrderResult edge_order_of(const Graph& g, const CliqueOptions& opts) {
  return opts.edge_order == EdgeOrderKind::ExactCommunityDegeneracy
             ? community_degeneracy_order(g)
             : approx_community_degeneracy_order(g, opts.eps);
}

/// Runs one query at `workers` workers (0 = the full pool).
Answer run_query(const PreparedGraph& engine, QueryKind kind, int k, int workers) {
  Query q;
  q.kind = kind;
  q.k = k;
  q.opts.max_workers = workers;
  return engine.run(q);
}

/// The listed cliques, each sorted, in sorted order.
std::vector<std::vector<node_t>> sorted_cliques(std::vector<std::vector<node_t>> cliques) {
  for (auto& c : cliques) std::sort(c.begin(), c.end());
  std::sort(cliques.begin(), cliques.end());
  return cliques;
}

/// Checks count, list, vertexcounts and edgecounts of `engine` at k against
/// the kcList engine `ref`, at one worker and on the full pool.
void expect_all_kinds_match(const PreparedGraph& engine, const PreparedGraph& ref, int k,
                            count_t expected) {
  const Answer ref_list = run_query(ref, QueryKind::List, k, 0);
  const Answer ref_vertex = run_query(ref, QueryKind::PerVertexCounts, k, 0);
  const Answer ref_edge = run_query(ref, QueryKind::PerEdgeCounts, k, 0);
  ASSERT_EQ(ref_list.count, expected) << "k=" << k;
  for (const int workers : {1, 0}) {
    const std::string where =
        "k=" + std::to_string(k) + " workers=" + (workers == 1 ? "1" : "all");
    EXPECT_EQ(run_query(engine, QueryKind::Count, k, workers).count, expected) << where;
    const Answer list = run_query(engine, QueryKind::List, k, workers);
    EXPECT_EQ(list.count, expected) << where;
    EXPECT_EQ(sorted_cliques(list.cliques), sorted_cliques(ref_list.cliques)) << where;
    EXPECT_EQ(run_query(engine, QueryKind::PerVertexCounts, k, workers).per_counts,
              ref_vertex.per_counts)
        << where;
    EXPECT_EQ(run_query(engine, QueryKind::PerEdgeCounts, k, workers).per_counts,
              ref_edge.per_counts)
        << where;
  }
}

/// |U(u)| at k = 3 when u owns all its edges: the union of their V'(e).
std::size_t owned_universe(const Graph& g, const EdgeOrderResult& order, node_t u) {
  std::set<node_t> universe;
  for (const edge_t e : g.edge_ids(u)) {
    for (const node_t x : order.candidates(e)) universe.insert(x);
  }
  return universe.size();
}

constexpr node_t kGroup = 5;

/// A clique fan: hub `first` joined to `width` fan vertices, which form
/// width / kGroup K_5 groups taken with stride width / kGroup (so every
/// group spreads over the whole fan). Each fan vertex gets width - 4
/// pendant leaves, which lifts its degree to width + 1 above the hub's: the
/// hub owns every fan edge. Its universe is 4/5 of the fan, since in each
/// K_6 the fan vertex whose hub edge comes first is in no V'(e) at the hub.
/// Returns the next free id.
node_t add_fan(EdgeList& edges, node_t first, node_t width) {
  const node_t stride = width / kGroup;
  for (node_t i = 0; i < stride; ++i) {
    std::vector<node_t> members = {first};
    for (node_t t = 0; t < kGroup; ++t) members.push_back(first + 1 + i + t * stride);
    add_clique(edges, members);
  }
  node_t next = first + 1 + width;
  for (node_t x = first + 1; x <= first + width; ++x) {
    for (node_t leaf = 0; leaf + 4 < width; ++leaf) edges.push_back({x, next++});
  }
  return next;
}

// Hub universes of 80, 160 and 320 vertices: 2, 3 and 5 words, the last in
// the padded stride above 256.
constexpr node_t kFanWidths[] = {100, 200, 400};

class C3ListCDWideUniverseTest : public ::testing::TestWithParam<Variant> {};

TEST_P(C3ListCDWideUniverseTest, FansMatchKcListAndClosedForm) {
  const testing::PoolScope pool;
  EdgeList edges = base_edges();
  std::vector<node_t> hubs;
  node_t next = kBaseNodes;
  for (const node_t width : kFanWidths) {
    hubs.push_back(next);
    next = add_fan(edges, next, width);
  }
  const Graph g = build_graph(edges, next);
  const CliqueOptions opts = variant_opts(GetParam());
  const EdgeOrderResult order = edge_order_of(g, opts);
  for (std::size_t f = 0; f < hubs.size(); ++f) {
    ASSERT_LT(g.degree(hubs[f]), g.degree(hubs[f] + 1));
    EXPECT_EQ(owned_universe(g, order, hubs[f]), kFanWidths[f] / kGroup * 4);
  }
  const PreparedGraph cd(g, opts);
  CliqueOptions ref_opts;
  ref_opts.algorithm = Algorithm::KCList;
  const PreparedGraph kc(g, ref_opts);

  for (int k = 3; k <= 6; ++k) {
    count_t closed_form = base_cliques(k);
    for (const node_t width : kFanWidths) {
      closed_form += width / kGroup * binomial(kGroup + 1, static_cast<count_t>(k));
    }
    expect_all_kinds_match(cd, kc, k, closed_form);
  }
}

TEST_P(C3ListCDWideUniverseTest, HubOwningNoEdgeMatchesKcList) {
  // A hub of degree 2100 in groups of 2, 3 and 4 neighbors, each group a
  // clique with the hub: every group member has a lower degree, so it owns
  // its hub edge, and the hub sits in many small universes while owning no
  // edge itself.
  const testing::PoolScope pool;
  EdgeList edges = base_edges();
  const node_t hub = kBaseNodes;
  node_t next = hub + 1;
  std::vector<node_t> group_sizes;
  for (node_t s = 2; next - hub - 1 < 2100; s = s == 4 ? 2 : s + 1) {
    std::vector<node_t> members = {hub};
    for (node_t i = 0; i < s; ++i) members.push_back(next++);
    add_clique(edges, members);
    group_sizes.push_back(s);
  }
  const Graph g = build_graph(edges, next);
  ASSERT_GE(g.degree(hub), 2000u);
  const PreparedGraph cd(g, variant_opts(GetParam()));
  CliqueOptions ref_opts;
  ref_opts.algorithm = Algorithm::KCList;
  const PreparedGraph kc(g, ref_opts);

  for (int k = 3; k <= 5; ++k) {
    count_t closed_form = base_cliques(k);
    count_t through_hub = 0;
    for (const node_t s : group_sizes) {
      closed_form += binomial(s + 1, static_cast<count_t>(k));
      through_hub += binomial(s, static_cast<count_t>(k - 1));
    }
    EXPECT_EQ(run_query(kc, QueryKind::PerVertexCounts, k, 0).per_counts[hub], through_hub)
        << "k=" << k;
    expect_all_kinds_match(cd, kc, k, closed_form);
  }
}

// At k <= 4 every search is a c <= 2 leaf, where the pruning does not act,
// so the planted cliques run under the two edge orders only.
class C3ListCDPlantedTest : public ::testing::TestWithParam<Variant> {};

TEST_P(C3ListCDPlantedTest, PlantedCliquesMatchKcListAndClosedForm) {
  // A planted s-clique's lowest-degree member owns up to s - 1 edges, and
  // its universe spans up to s - 2 vertices: up to 2, 3 and 5 words here.
  const testing::PoolScope pool;
  const node_t sizes[] = {70, 130, 300};
  EdgeList edges = base_edges();
  node_t next = kBaseNodes;
  for (const node_t s : sizes) {
    std::vector<node_t> members(s);
    for (node_t i = 0; i < s; ++i) members[i] = next + i;
    add_clique(edges, members);
    next += s;
  }
  const Graph g = build_graph(edges, next);
  const PreparedGraph cd(g, variant_opts(GetParam()));
  CliqueOptions ref_opts;
  ref_opts.algorithm = Algorithm::KCList;
  const PreparedGraph kc(g, ref_opts);
  // Larger k multiply the cost: C(300, 5) is 2 * 10^10.
  for (int k = 3; k <= 4; ++k) {
    count_t closed_form = base_cliques(k);
    for (const node_t s : sizes) closed_form += binomial(s, static_cast<count_t>(k));
    ASSERT_EQ(kc.count(k).count, closed_form) << "k=" << k;
    const Answer ref_vertex = run_query(kc, QueryKind::PerVertexCounts, k, 0);
    for (const int workers : {1, 0}) {
      const std::string where =
          "k=" + std::to_string(k) + " workers=" + (workers == 1 ? "1" : "all");
      EXPECT_EQ(run_query(cd, QueryKind::Count, k, workers).count, closed_form) << where;
      EXPECT_EQ(run_query(cd, QueryKind::PerVertexCounts, k, workers).per_counts,
                ref_vertex.per_counts)
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, C3ListCDWideUniverseTest,
    ::testing::Values(
        Variant{"Exact", EdgeOrderKind::ExactCommunityDegeneracy, true},
        Variant{"ExactNoPruning", EdgeOrderKind::ExactCommunityDegeneracy, false},
        Variant{"Approx", EdgeOrderKind::ApproxCommunityDegeneracy, true},
        Variant{"ApproxNoPruning", EdgeOrderKind::ApproxCommunityDegeneracy, false}),
    [](const ::testing::TestParamInfo<Variant>& info) { return info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    Orders, C3ListCDPlantedTest,
    ::testing::Values(Variant{"Exact", EdgeOrderKind::ExactCommunityDegeneracy, true},
                      Variant{"Approx", EdgeOrderKind::ApproxCommunityDegeneracy, true}),
    [](const ::testing::TestParamInfo<Variant>& info) { return info.param.name; });

}  // namespace
}  // namespace c3
