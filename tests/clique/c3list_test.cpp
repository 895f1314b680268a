// Tests for the core community-centric algorithm (Algorithms 1 + 2).
// CliqueOptions selects c3List unless a test says otherwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ostream>
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

TEST(C3List, CompleteGraphClosedForm) {
  const Graph g = complete_graph(12);
  for (int k = 3; k <= 12; ++k) {
    EXPECT_EQ(count_cliques(g, k).count, binomial(12, k)) << "k=" << k;
  }
  EXPECT_EQ(count_cliques(g, 13).count, 0u);
}

TEST(C3List, TrivialSizes) {
  const Graph g = erdos_renyi(100, 300, 1);
  EXPECT_EQ(count_cliques(g, 0).count, 0u);
  EXPECT_EQ(count_cliques(g, -3).count, 0u);
  EXPECT_EQ(count_cliques(g, 1).count, 100u);
  EXPECT_EQ(count_cliques(g, 2).count, 300u);
}

TEST(C3List, TriangleCountMatchesK3) {
  const Graph g = social_like(400, 3000, 0.4, 2);
  EXPECT_EQ(count_cliques(g, 3).count, brute_force_count(g, 3));
}

TEST(C3List, MatchesBruteForceAcrossSeedsAndK) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);  // dense enough for 6-cliques
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

// The TriangleGrowth suite once compared a triangle-growth recursion with
// edge growth. Edge growth is the one recursion left; these cases keep its
// inputs and check it against kcList and a closed form or brute force.
TEST(TriangleGrowth, AgreesWithEdgeGrowthOnDenseBlocks) {
  // Dense blocks over a sparse backbone: cliques of up to 8 vertices.
  const Graph g = bio_like(300, 1500, 12, 16, 0.6, 7);
  CliqueOptions kc;
  kc.algorithm = Algorithm::KCList;
  for (int k = 4; k <= 8; ++k) {
    const count_t expect = brute_force_count(g, k);
    EXPECT_EQ(count_cliques(g, k).count, expect) << "k=" << k;
    EXPECT_EQ(count_cliques(g, k, kc).count, expect) << "k=" << k;
  }
}

TEST(TriangleGrowth, DeepSearchAgreement) {
  // A deep search: k = 14 in K_24 grows the clique by seven edges.
  const Graph g = complete_graph(24);
  CliqueOptions kc;
  kc.algorithm = Algorithm::KCList;
  const CliqueResult edge = count_cliques(g, 14);
  EXPECT_EQ(edge.count, count_cliques(g, 14, kc).count);
  EXPECT_EQ(edge.count, binomial(24, 14));
  EXPECT_GT(edge.stats.recursive_calls, 0u);
}

TEST(C3List, AllVertexOrdersAgree) {
  const Graph g = erdos_renyi(60, 500, 4);
  for (int k = 4; k <= 6; ++k) {
    CliqueOptions exact, approx, byid;
    exact.vertex_order = VertexOrderKind::ExactDegeneracy;
    approx.vertex_order = VertexOrderKind::ApproxDegeneracy;
    byid.vertex_order = VertexOrderKind::ById;
    const count_t a = count_cliques(g, k, exact).count;
    EXPECT_EQ(a, count_cliques(g, k, approx).count) << "k=" << k;
    EXPECT_EQ(a, count_cliques(g, k, byid).count) << "k=" << k;
  }
}

TEST(C3List, PruningAblationPreservesCounts) {
  const Graph g = social_like(200, 1500, 0.4, 6);
  for (int k = 4; k <= 6; ++k) {
    CliqueOptions with, without;
    with.distance_pruning = true;
    without.distance_pruning = false;
    CliqueResult rw = count_cliques(g, k, with);
    CliqueResult ro = count_cliques(g, k, without);
    EXPECT_EQ(rw.count, ro.count) << "k=" << k;
    // The pruned run must probe at most as many pairs.
    EXPECT_LE(rw.stats.pairs_probed, ro.stats.pairs_probed) << "k=" << k;
  }
}

TEST(C3List, PruningActuallyPrunesOnLargeK) {
  // For k close to gamma the distance criterion rejects most pairs.
  const Graph g = complete_graph(16);
  CliqueOptions with, without;
  with.distance_pruning = true;
  without.distance_pruning = false;
  const CliqueResult rw = count_cliques(g, 14, with);
  const CliqueResult ro = count_cliques(g, 14, without);
  EXPECT_EQ(rw.count, ro.count);
  EXPECT_LT(rw.stats.pairs_probed, ro.stats.pairs_probed / 2);
}

TEST(C3List, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 8);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = count_cliques(g, k).count;
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback());
    EXPECT_EQ(r.count, expect);
    collector.expect_valid(expect);
  }
}

TEST(C3List, ListingEarlyExitStops) {
  const Graph g = complete_graph(14);  // plenty of 5-cliques
  std::atomic<int> calls{0};
  const CliqueCallback stop_after_three = [&](std::span<const node_t>) {
    return calls.fetch_add(1) + 1 < 3;
  };
  (void)list_cliques(g, 5, stop_after_three);
  // At least 3 (the stop request), far fewer than the full count.
  EXPECT_GE(calls.load(), 3);
  EXPECT_LT(static_cast<count_t>(calls.load()), binomial(14, 5) / 2);
}

TEST(C3List, StatsAreCoherent) {
  const Graph g = social_like(300, 2200, 0.4, 3);
  const CliqueResult r = count_cliques(g, 5);
  EXPECT_EQ(r.stats.cliques, r.count);
  EXPECT_GE(r.stats.pairs_probed, r.stats.edges_matched);
  EXPECT_GT(r.stats.recursive_calls, 0u);
  EXPECT_GT(r.stats.gamma, 0u);
  // gamma <= max out-degree - 1 <= s - 1 under the exact degeneracy order.
  EXPECT_LT(r.stats.gamma, r.stats.order_quality + 1);
}

TEST(C3List, KAboveOmegaGivesZero) {
  const Graph g = turan_graph(20, 4);  // omega = 4
  EXPECT_GT(count_cliques(g, 4).count, 0u);
  EXPECT_EQ(count_cliques(g, 5).count, 0u);
  EXPECT_EQ(count_cliques(g, 10).count, 0u);
}

TEST(C3List, HandlesTriangleFreeGraphs) {
  EXPECT_EQ(count_cliques(hypercube(6), 3).count, 0u);
  EXPECT_EQ(count_cliques(hypercube(6), 4).count, 0u);
  EXPECT_EQ(count_cliques(grid_graph(10, 10), 3).count, 0u);
}

TEST(C3List, EmptyAndTinyGraphs) {
  EXPECT_EQ(count_cliques(Graph{}, 4).count, 0u);
  EXPECT_EQ(count_cliques(complete_graph(3), 4).count, 0u);
  EXPECT_EQ(count_cliques(complete_graph(4), 4).count, 1u);
  EXPECT_EQ(count_cliques(complete_graph(5), 4).count, 5u);
}

TEST(C3List, TopLevelTasksAreTheQualifyingArcs) {
  // Under any total order of K_12, the arc between ranks i < j has j - i - 1
  // triangles, so C(14 - k, 2) arcs support the k - 2 that Algorithm 1,
  // line 2 asks for.
  const Graph g = complete_graph(12);
  for (int k = 3; k <= 13; ++k) {
    EXPECT_EQ(count_cliques(g, k).stats.top_level_tasks, binomial(14 - k, 2)) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Universes wider than one word. c3List induces one local graph per source
// vertex u over U(u) (the targets of u's qualifying arcs plus their
// communities) and reads each arc's community as the target's row masked to
// the bits below it, so the masks, the candidate arrays and the aggregation
// slots must be right across word boundaries.

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

/// A clique fan: hub `first` joined to `width` fan vertices, which form
/// `width / group` cliques of `group` members taken with stride
/// width / group (so every clique spreads over the whole fan), plus
/// `spokes` further hub neighbors in no triangle. Ordered by id, the hub's
/// universe is exactly the fan: an arc to the t-th member of a clique has
/// t triangles, so each clique's first members are targets of
/// non-qualifying arcs and members of qualifying arcs' communities, and the
/// spokes are neither. Returns the next free id.
node_t add_fan(EdgeList& edges, node_t first, node_t width, node_t group, node_t spokes) {
  const node_t stride = width / group;
  for (node_t i = 0; i < stride; ++i) {
    std::vector<node_t> members = {first};
    for (node_t t = 0; t < group; ++t) members.push_back(first + 1 + i + t * stride);
    add_clique(edges, members);
  }
  for (node_t s = 0; s < spokes; ++s) edges.push_back({first, first + 1 + width + s});
  return first + 1 + width + spokes;
}

struct Fan {
  node_t width, group;
};

// Universes of 2, 3 and 5 words; targets of qualifying arcs sit at local ids
// 64, 128 and 256 and beyond.
constexpr Fan kFans[] = {{70, 7}, {130, 5}, {300, 6}};

/// The fans beside the disjoint sparse base; `hubs` receives the hub ids.
Graph fan_graph(std::vector<node_t>& hubs) {
  EdgeList edges = base_edges();
  node_t next = kBaseNodes;
  for (const Fan& fan : kFans) {
    hubs.push_back(next);
    next = add_fan(edges, next, fan.width, fan.group, 9);
  }
  return build_graph(edges, next);
}

/// Each of a fan's width / group cliques with the hub is a K_(group+1):
/// the fan's k-cliques, and those through its hub, in closed form.
count_t fan_cliques(const Fan& fan, int k) {
  return (fan.width / fan.group) * binomial(fan.group + 1, static_cast<count_t>(k));
}
count_t hub_cliques(const Fan& fan, int k) {
  return (fan.width / fan.group) * binomial(fan.group, static_cast<count_t>(k - 1));
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

struct Variant {
  std::string name;
  bool distance_pruning = true;
};

void PrintTo(const Variant& variant, std::ostream* os) { *os << variant.name; }

class C3ListWideUniverseTest : public ::testing::TestWithParam<Variant> {};

TEST_P(C3ListWideUniverseTest, FansMatchKcListAndClosedForm) {
  const testing::PoolScope pool;
  std::vector<node_t> hubs;
  const Graph g = fan_graph(hubs);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  opts.vertex_order = VertexOrderKind::ById;
  opts.distance_pruning = GetParam().distance_pruning;
  const PreparedGraph c3(g, opts);
  CliqueOptions ref_opts;
  ref_opts.algorithm = Algorithm::KCList;
  const PreparedGraph kc(g, ref_opts);

  for (int k = 3; k <= 6; ++k) {
    const count_t expected = kc.count(k).count;
    const Answer ref_list = run_query(kc, QueryKind::List, k, 0);
    const Answer ref_vertex = run_query(kc, QueryKind::PerVertexCounts, k, 0);
    const Answer ref_edge = run_query(kc, QueryKind::PerEdgeCounts, k, 0);
    count_t closed_form = base_cliques(k);
    for (std::size_t f = 0; f < hubs.size(); ++f) {
      closed_form += fan_cliques(kFans[f], k);
      EXPECT_EQ(ref_vertex.per_counts[hubs[f]], hub_cliques(kFans[f], k)) << "k=" << k;
    }
    ASSERT_EQ(expected, closed_form) << "k=" << k;
    for (const int workers : {1, 0}) {
      const std::string where =
          "k=" + std::to_string(k) + " workers=" + (workers == 1 ? "1" : "all");
      const Answer count = run_query(c3, QueryKind::Count, k, workers);
      EXPECT_EQ(count.count, expected) << where;
      const Answer list = run_query(c3, QueryKind::List, k, workers);
      EXPECT_EQ(list.count, expected) << where;
      EXPECT_EQ(sorted_cliques(list.cliques), sorted_cliques(ref_list.cliques)) << where;
      EXPECT_EQ(run_query(c3, QueryKind::PerVertexCounts, k, workers).per_counts,
                ref_vertex.per_counts)
          << where;
      EXPECT_EQ(run_query(c3, QueryKind::PerEdgeCounts, k, workers).per_counts,
                ref_edge.per_counts)
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, C3ListWideUniverseTest,
                         ::testing::Values(Variant{"Default", true},
                                           Variant{"NoPruning", false}),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return info.param.name;
                         });

TEST(C3ListWideUniverse, PlantedCliquesMatchKcListAndClosedForm) {
  // Under the default degeneracy order, a planted s-clique's lowest-ranked
  // member has a universe of s - 1 vertices: 2, 3 and 5 words here.
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
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph c3(g, opts);
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
      EXPECT_EQ(run_query(c3, QueryKind::Count, k, workers).count, closed_form) << where;
      EXPECT_EQ(run_query(c3, QueryKind::PerVertexCounts, k, workers).per_counts,
                ref_vertex.per_counts)
          << where;
    }
  }
}

}  // namespace
}  // namespace c3
