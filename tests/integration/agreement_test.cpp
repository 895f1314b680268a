// Cross-algorithm agreement: every algorithm must report identical counts on
// a diverse sweep of graphs and clique sizes (parameterized property test).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/test_helpers.hpp"
#include "graph/gen/generators.hpp"

namespace c3 {
namespace {

struct GraphCase {
  const char* name;
  Graph graph;
};

GraphCase make_case(int which) {
  switch (which) {
    case 0:
      return {"erdos_renyi", erdos_renyi(48, 350, 101)};
    case 1:
      return {"social_like", social_like(80, 600, 0.4, 102)};
    case 2:
      return {"collaboration", collaboration_like(90, 60, 9, 103)};
    case 3:
      return {"rating_projection", rating_projection(60, 12, 5, 104)};
    case 4:
      return {"planted_clique", planted_clique(70, 180, 9, 105, nullptr)};
    case 5:
      return {"mesh", mesh_like(120, 7, 106)};
    default:
      return {"bio", bio_like(80, 250, 5, 12, 0.6, 107)};
  }
}

class Agreement : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Agreement, AllAlgorithmsMatchBruteForce) {
  const auto [which, k] = GetParam();
  const GraphCase c = make_case(which);
  const count_t expect = brute_force_count(c.graph, k);

  for (const Algorithm alg : {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid,
                              Algorithm::KCList, Algorithm::ArbCount}) {
    CliqueOptions opts;
    opts.algorithm = alg;
    EXPECT_EQ(count_cliques(c.graph, k, opts).count, expect)
        << c.name << " k=" << k << " alg=" << algorithm_name(alg);
  }
  // Approximate orders for the two order-sensitive algorithms.
  CliqueOptions approx_vertex;
  approx_vertex.algorithm = Algorithm::C3List;
  approx_vertex.vertex_order = VertexOrderKind::ApproxDegeneracy;
  EXPECT_EQ(count_cliques(c.graph, k, approx_vertex).count, expect) << c.name << " k=" << k;

  CliqueOptions approx_edge;
  approx_edge.algorithm = Algorithm::C3ListCD;
  approx_edge.edge_order = EdgeOrderKind::ApproxCommunityDegeneracy;
  EXPECT_EQ(count_cliques(c.graph, k, approx_edge).count, expect) << c.name << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Agreement,
                         ::testing::Combine(::testing::Range(0, 7), ::testing::Range(3, 8)),
                         [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
                           return "graph" + std::to_string(std::get<0>(info.param)) + "_k" +
                                  std::to_string(std::get<1>(info.param));
                         });

// The pivot spectrum of every engine: equal to the engine's own per-k
// counts, to every other engine's spectrum, and to BruteForce's counts.
// The per-k checks stop before a size with more than two million cliques:
// the rating_projection case has omega = 29 and 1.6 billion 15-cliques,
// which the per-k searches would enumerate one by one.
class SpectrumAgreement : public ::testing::TestWithParam<int> {};

constexpr count_t kMaxChecked = 2'000'000;

TEST_P(SpectrumAgreement, EveryEngineMatchesItsCountsAndBruteForce) {
  const GraphCase c = make_case(GetParam());
  for (const int kmax : {0, 4}) {
    const CliqueSpectrum s = testing::expect_spectrum_agreement(
        c.graph, kmax, std::string(c.name) + " kmax=" + std::to_string(kmax), kMaxChecked);
    for (int k = 1; k <= static_cast<int>(s.omega); ++k) {
      if (s.counts[static_cast<std::size_t>(k)] > kMaxChecked) break;
      EXPECT_EQ(s.counts[static_cast<std::size_t>(k)], brute_force_count(c.graph, k))
          << c.name << " kmax=" << kmax << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpectrumAgreement, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "graph" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace c3
