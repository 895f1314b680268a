// Seeded inputs. Every graph a workload runs on is generated here from the
// run seed, as a plain edge list: turning it into a Graph (build_graph) is
// part of the timed set-up, not of input generation.
//
// The recipes follow bench/datasets.hpp (orkut_like, dblp_like,
// skitter_like at scale 1, and bench_kernels' dense_blocks overlay), with one
// change that keeps the cost of a run independent of the seed: the sizes of
// the overlaid cliques (and of the collaboration teams) follow a fixed
// power-law schedule, and only which vertices they pick is random. With
// random sizes, the few largest cliques — which dominate k = 10 counting —
// would vary from seed to seed by more than any regression worth catching.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "c3list.hpp"

namespace perfbench {

struct EdgeInput {
  std::string name;
  c3::node_t n = 0;
  c3::EdgeList edges;
};

/// Inputs shrink for the self-check (`tiny`): same recipes, ~1/10 size.
[[nodiscard]] EdgeInput orkut_like(std::uint64_t seed, bool tiny);
[[nodiscard]] EdgeInput dblp_like(std::uint64_t seed, bool tiny);
[[nodiscard]] EdgeInput skitter_like(std::uint64_t seed, bool tiny);
[[nodiscard]] EdgeInput dense_blocks(std::uint64_t seed, bool tiny);
/// Complete r-partite graph: no (r+1)-clique, so a probe for one is fruitless.
[[nodiscard]] EdgeInput turan(c3::node_t n, c3::node_t r);

}  // namespace perfbench
