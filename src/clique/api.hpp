// Unified one-shot entry points: dispatch a CliqueOptions::algorithm to the
// matching implementation. Both are thin wrappers over the plan/execute
// engine (engine.hpp) — they prepare, query once, and throw the preparation
// away. Callers issuing several queries against the same graph should hold a
// PreparedGraph instead. Most one-shot callers only need these two functions
// (and the umbrella header c3list.hpp re-exports everything else).
#pragma once

#include "clique/c3list.hpp"
#include "clique/common.hpp"
#include "graph/graph.hpp"

namespace c3 {

/// Counts all k-cliques of g with the selected algorithm.
[[nodiscard]] CliqueResult count_cliques(const Graph& g, int k, const CliqueOptions& opts = {});

/// Lists all k-cliques of g through `callback` with the selected algorithm.
[[nodiscard]] CliqueResult list_cliques(const Graph& g, int k, const CliqueCallback& callback,
                                        const CliqueOptions& opts = {});

/// Human-readable algorithm name (bench/table output).
[[nodiscard]] const char* algorithm_name(Algorithm alg) noexcept;

/// Names of the order kinds, as refusals and `c3tool inspect` print them.
[[nodiscard]] const char* vertex_order_name(VertexOrderKind kind) noexcept;
[[nodiscard]] const char* edge_order_name(EdgeOrderKind kind) noexcept;

}  // namespace c3
