// Per-vertex and per-edge clique counts, checked against an independent
// reference: every clique BruteForce lists, tallied one at a time. The
// engines aggregate inside the search instead (closed-form leaf tallies,
// per-worker arrays, one merge), so this suite covers every algorithm and
// search variant, both worker settings, and a snapshot-loaded engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "snapshot/snapshot.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

constexpr int kMaxK = 7;

struct Reference {
  std::vector<count_t> vertex, edge;
};

/// Tallies every k-clique BruteForce lists.
Reference reference_counts(const Graph& g, int k) {
  Reference ref{std::vector<count_t>(g.num_nodes()), std::vector<count_t>(g.num_edges())};
  CliqueOptions opts;
  opts.algorithm = Algorithm::BruteForce;
  const PreparedGraph brute(g, opts);
  (void)brute.list(k, [&](std::span<const node_t> clique) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      ++ref.vertex[clique[i]];
      for (std::size_t j = 0; j < i; ++j) ++ref.edge[g.edge_id(clique[i], clique[j])];
    }
    return true;
  });
  return ref;
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> graphs() {
  std::vector<NamedGraph> out;
  out.push_back({"erdos_renyi", erdos_renyi(45, 320, 5)});
  out.push_back({"social_like", social_like(70, 420, 0.5, 3)});
  out.push_back({"planted_clique", planted_clique(60, 180, 9, 11)});
  out.push_back({"complete_9", complete_graph(9)});
  out.push_back({"edgeless", build_graph(EdgeList{}, 12)});
  return out;
}

/// One engine configuration under test.
struct Config {
  std::string name;
  CliqueOptions opts;
  int dense_min = 0;  ///< kcList dense-subproblem floor to force; 0 = leave it
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

std::vector<Config> configs() {
  std::vector<Config> out;
  const auto add = [&](const std::string& name, Algorithm alg) {
    Config c{name, {}, 0};
    c.opts.algorithm = alg;
    out.push_back(c);
    return c;
  };
  for (const auto& [name, alg] : {std::pair{"c3List", Algorithm::C3List},
                                  std::pair{"c3List_CD", Algorithm::C3ListCD},
                                  std::pair{"Hybrid", Algorithm::Hybrid}}) {
    Config c = add(name, alg);
    c.name = std::string(name) + "_NoPruning";
    c.opts.distance_pruning = false;
    out.push_back(c);
  }
  Config kc = add("kcList", Algorithm::KCList);
  kc.name = "kcList_DenseAlways";
  kc.dense_min = 1;
  out.push_back(kc);
  kc.name = "kcList_DenseNever";
  kc.dense_min = INT_MAX;
  out.push_back(kc);
  add("ArbCount", Algorithm::ArbCount);
  add("BruteForce", Algorithm::BruteForce);
  return out;
}

/// Runs both aggregation kinds for k = 1..kMaxK at one worker and at the
/// full pool, and compares each against the reference. The spectrum (at
/// both worker settings) must agree with the reference and with the
/// engine's own count(k).
void expect_parity(const PreparedGraph& engine, const Graph& g, const std::string& label) {
  std::vector<CliqueSpectrum> spectra;
  for (const int workers : {1, 0}) {
    Query q;
    q.kind = QueryKind::Spectrum;
    q.kmax = kMaxK;
    q.opts.max_workers = workers;
    const Answer a = engine.run(q);
    EXPECT_FALSE(a.truncated) << label;
    spectra.push_back(a.spectrum);
  }
  for (int k = 1; k <= kMaxK; ++k) {
    const Reference ref = reference_counts(g, k);
    count_t cliques = 0;
    for (const count_t c : ref.vertex) cliques += c;
    cliques /= static_cast<count_t>(k);
    EXPECT_EQ(engine.count(k).count, cliques) << label << " k=" << k << " (count)";
    for (const CliqueSpectrum& s : spectra) {
      const auto at = static_cast<std::size_t>(k);
      EXPECT_EQ(at < s.counts.size() ? s.counts[at] : 0, cliques)
          << label << " k=" << k << " (spectrum)";
    }
    for (const int workers : {1, 0}) {
      Query q;
      q.k = k;
      q.opts.max_workers = workers;
      q.kind = QueryKind::PerVertexCounts;
      const Answer v = engine.run(q);
      q.kind = QueryKind::PerEdgeCounts;
      const Answer e = engine.run(q);
      const std::string where = label + " k=" + std::to_string(k) +
                                " workers=" + (workers == 1 ? "1" : "all");
      EXPECT_FALSE(v.truncated) << where;
      EXPECT_FALSE(e.truncated) << where;
      EXPECT_EQ(v.per_counts, ref.vertex) << where << " (per-vertex)";
      EXPECT_EQ(e.per_counts, ref.edge) << where << " (per-edge)";
    }
  }
}

class AggregateParityTest : public ::testing::TestWithParam<Config> {};

TEST_P(AggregateParityTest, MatchesPerCliqueReference) {
  const Config& config = GetParam();
  const testing::PoolScope pool;
  const testing::DenseFloorScope floor(config.dense_min);
  for (const NamedGraph& input : graphs()) {
    const PreparedGraph engine(input.graph, config.opts);
    expect_parity(engine, input.graph, config.name + " on " + input.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, AggregateParityTest, ::testing::ValuesIn(configs()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return info.param.name;
                         });

class AggregateSnapshotParityTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AggregateSnapshotParityTest, LoadedEngineMatchesPerCliqueReference) {
  const testing::PoolScope pool;
  const Graph g = social_like(70, 420, 0.5, 3);
  CliqueOptions opts;
  opts.algorithm = GetParam();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("c3list_aggregate_parity_" + std::to_string(::getpid()) + "_" +
       std::to_string(static_cast<int>(GetParam())) + ".c3snap");
  snapshot::write(path, PreparedGraph(g, opts));
  {
    const auto snap = snapshot::Snapshot::open(path);
    expect_parity(snap.engine(), snap.graph(), std::string("snapshot ") +
                                                   algorithm_name(GetParam()));
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AggregateSnapshotParityTest,
                         ::testing::Values(Algorithm::C3List, Algorithm::C3ListCD,
                                           Algorithm::Hybrid, Algorithm::KCList,
                                           Algorithm::ArbCount),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           std::string name = algorithm_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace c3
