// Local subgraph representation for the recursive search.
//
// Algorithm 1 preprocesses each qualifying edge e by renaming its community
// C(e) to consecutive integers and building "an adjacency matrix of G[C(e)]"
// with "a boolean indicator table" per edge (Section 2.2). We realize both
// as bitset rows over a local universe: row(a) holds the local neighbors
// of a, so edge probes are single bit tests and community intersections are
// word-parallel ANDs. c3List builds one local graph per source vertex u,
// over the union U(u) of its qualifying arcs' targets and communities, and
// reads C(u, v) as the row of v masked to the bits below it (c3list.cpp).
// Algorithm 3 also builds one per source vertex, over the union of its
// owned edges' V'(e), but adds the edges with add_edge as its sweep over
// the edge order reaches them (c3list_cd.cpp). The per-vertex searches
// build one per task.
//
// build_local_graph assigns local ids in ascending rank order, so the total
// order of the orientation is the natural `<` on local ids and the paper's
// distance function delta_I is an index difference in the sorted candidate
// array. It finds each member's arcs through a per-worker vertex -> local-id
// map (CliqueScratch::local_id), reading every out-list once.
//
// Storage follows the kernel substrate contract (util/bitkernels.hpp): rows
// live in 64-byte-aligned memory with a per-row stride of
// kernel_stride_words(n) — exact for communities of <= 256 vertices, padded
// to the 512-bit vector width above that — and padding words stay zero so
// the SIMD kernels can run tail-free over whole rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/common.hpp"
#include "graph/digraph.hpp"
#include "util/bitkernels.hpp"
#include "util/bitwords.hpp"

namespace c3 {

/// Reusable per-worker storage for one local subgraph and the recursion
/// stacks on top of it. Sized for the largest universe met so far; reused
/// across top-level tasks to avoid allocation in the hot loop.
class LocalGraph {
 public:
  /// Prepares an empty local graph over `n` vertices. Clearing is lazy:
  /// only the rows actually populated for the previous universe are
  /// zeroed (everything else is zero by invariant), so tiny universes
  /// stop paying O(n·words) memset on every top-level task.
  void reset(int n);

  /// Number of local vertices.
  [[nodiscard]] int size() const noexcept { return n_; }

  /// Words per bitset row (the kernel stride — padding words are zero).
  [[nodiscard]] int words() const noexcept { return words_; }

  /// Adds the undirected edge {a, b} (sets both direction bits).
  void add_edge(int a, int b) noexcept {
    mark_dirty(a);
    mark_dirty(b);
    bits::set_bit(row_mut(a), static_cast<std::size_t>(b));
    bits::set_bit(row_mut(b), static_cast<std::size_t>(a));
  }

  [[nodiscard]] bool has_edge(int a, int b) const noexcept {
    return bits::test_bit(row(a), static_cast<std::size_t>(b));
  }

  [[nodiscard]] const std::uint64_t* row(int a) const noexcept {
    return rows_.data() + static_cast<std::size_t>(a) * static_cast<std::size_t>(words_);
  }

  [[nodiscard]] std::uint64_t* row_mut(int a) noexcept {
    return rows_.data() + static_cast<std::size_t>(a) * static_cast<std::size_t>(words_);
  }

  /// Local degree of a (popcount of its row).
  [[nodiscard]] int degree(int a) const noexcept {
    return static_cast<int>(kern::popcount(row(a), static_cast<std::size_t>(words_)));
  }

  /// Rows touched since the last reset (test/observability hook for the
  /// lazy-clearing invariant).
  [[nodiscard]] int dirty_rows() const noexcept { return static_cast<int>(dirty_rows_.size()); }

 private:
  void mark_dirty(int a) noexcept {
    if (row_dirty_[static_cast<std::size_t>(a)] == 0) {
      row_dirty_[static_cast<std::size_t>(a)] = 1;
      dirty_rows_.push_back(a);  // within capacity: reset() reserves n slots
    }
  }

  int n_ = 0;
  int words_ = 0;
  bits::KernelWords rows_;
  std::vector<std::uint8_t> row_dirty_;
  std::vector<int> dirty_rows_;
};

/// Populates `lg` with the subgraph of `dag` induced by `members` (global
/// ranks, sorted ascending). `local_id` is the caller's vertex -> local-id
/// map: -1 for every vertex on entry (grown to dag.num_nodes() when
/// shorter) and again on return. The build writes each member's local id
/// into it, then reads every member's out-list once and keeps the arcs
/// whose target maps to a local id: O(sum over members of out-degree).
/// When `arc_ids` is non-null it also records each local edge's DAG arc id
/// at a * n + b and b * n + a (n = |members|), the edge slots of
/// aggregation mode.
void build_local_graph(const Digraph& dag, std::span<const node_t> members, LocalGraph& lg,
                       std::vector<int>& local_id, edge_t* arc_ids = nullptr);

/// Dense-vs-CSR subproblem selection: true when a subproblem over
/// `nvertices` vertices with at most `arcs_upper` arcs is worth rebuilding
/// as a bitset LocalGraph (at least dense_subproblem_min_vertices()
/// vertices and average degree >= nvertices/8); below either bar the CSR
/// label recursion stays cheaper.
[[nodiscard]] bool use_dense_subproblem(int nvertices, std::int64_t arcs_upper) noexcept;

/// The vertex-count floor for use_dense_subproblem: 32, settable at runtime
/// so tests can force the dense (1) or CSR (INT_MAX) path.
void set_dense_subproblem_min_vertices(int n) noexcept;
[[nodiscard]] int dense_subproblem_min_vertices() noexcept;

}  // namespace c3
