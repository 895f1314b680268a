#include "clique/pivot.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "clique/combinatorics.hpp"
#include "clique/local_graph.hpp"
#include "util/bitkernels.hpp"

namespace c3 {
namespace {

/// Records one leaf with h held and p pivot vertices, widening the
/// histogram when p is the largest pivot count seen so far.
void add_leaf(PivotScratch& s, int h, int p) {
  const auto pp = static_cast<std::size_t>(p);
  if (pp >= s.stride) {
    const std::size_t stride = std::max(pp + 1, 2 * s.stride);
    std::vector<count_t> wider(s.rows * stride);
    for (std::size_t r = 0; r < s.rows; ++r) {
      std::copy_n(s.leaves.begin() + static_cast<std::ptrdiff_t>(r * s.stride), s.stride,
                  wider.begin() + static_cast<std::ptrdiff_t>(r * stride));
    }
    s.leaves = std::move(wider);
    s.stride = stride;
  }
  ++s.leaves[static_cast<std::size_t>(h) * s.stride + pp];
}

/// One worker's succinct clique tree over the local graph of one N+(v).
/// Level i of the scratch holds two sets: the candidates P of the node at
/// depth i, and the vertices it branches on.
class PivotTree {
 public:
  PivotTree(const LocalGraph& lg, int words, int limit, CliqueScratch& w)
      : lg_(lg), words_(words), stride_(lg.words()), limit_(limit), w_(w) {}

  /// Expands the node whose candidates (`size` of them) are set(2 * level),
  /// with h held and p pivot vertices on its path. The pivot u maximizes
  /// |P ∩ N(u)|; the node branches on every x in P \ N(u), in ascending
  /// order, into P ∩ N(x) minus the branches already taken. Only u is a
  /// pivot in its branch; every other x is held in its own. Aligned to a
  /// cache line, like kcList's descend, so its loops' placement is fixed.
  [[gnu::aligned(64)]] void expand(int level, int h, int p, int size) {
    LocalCounters& ctr = w_.ctr;
    ++ctr.recursive_calls;
    // A node that holds `limit` vertices adds only to counts[limit], and
    // only through its pivot branches (a held branch exceeds the limit):
    // its subtree is one pivot chain whose one leaf adds C(p', 0) = 1.
    if (size == 0 || h == limit_) {
      add_leaf(w_.pivot, h, p);
      ++ctr.leaf_work;
      return;
    }
    if (w_.ctx.poll_stop()) return;

    std::uint64_t* cand = set(2 * level);
    const auto words = static_cast<std::size_t>(words_);
    int pivot = -1;
    int best = -1;
    // |P ∩ N(u)| <= size - 1, so the first u reaching it is a best pivot.
    for (std::size_t i = 0; i < words && best + 1 < size; ++i) {
      for (std::uint64_t x = cand[i]; x != 0 && best + 1 < size; x &= x - 1) {
        const int u = static_cast<int>(i) * bits::kWordBits + std::countr_zero(x);
        const auto inside = static_cast<int>(kern::popcount_and(cand, lg_.row(u), words));
        ctr.intersection_words += words;
        if (inside > best) {
          best = inside;
          pivot = u;
        }
      }
    }

    std::uint64_t* branch = set(2 * level + 1);
    const std::uint64_t* pivot_row = lg_.row(pivot);
    for (std::size_t i = 0; i < words; ++i) branch[i] = cand[i] & ~pivot_row[i];
    std::uint64_t* child = set(2 * level + 2);
    for (std::size_t i = 0; i < words; ++i) {
      for (std::uint64_t bit = branch[i]; bit != 0; bit &= bit - 1) {
        const int x = static_cast<int>(i) * bits::kWordBits + std::countr_zero(bit);
        kern::and_into(child, cand, lg_.row(x), words);
        const auto child_size = static_cast<int>(kern::popcount(child, words));
        ctr.intersection_words += 2 * words;
        const bool is_pivot = x == pivot;
        expand(level + 1, is_pivot ? h : h + 1, is_pivot ? p + 1 : p, child_size);
        if (w_.ctx.stopped) return;
        bits::clear_bit(cand, static_cast<std::size_t>(x));
      }
    }
  }

 private:
  [[nodiscard]] std::uint64_t* set(int i) noexcept {
    return w_.pivot.sets.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(stride_);
  }

  const LocalGraph& lg_;
  int words_;   // words covering the local universe
  int stride_;  // words per set: the local graph's row stride
  int limit_;
  CliqueScratch& w_;
};

/// Sums the workers' leaf histograms: leaves[h * stride + p] over
/// h = 0..rows-1, with the widest stride any worker reached (a worker that
/// ran no task has stride 0).
PivotScratch merge_leaves(QueryScratch& scratch, std::size_t rows) {
  PivotScratch sum;
  sum.rows = rows;
  sum.stride = 1;
  for (std::size_t i = 0; i < scratch.workers.size(); ++i) {
    sum.stride = std::max(sum.stride, scratch.workers.slot(i).pivot.stride);
  }
  sum.leaves.assign(rows * sum.stride, 0);
  for (std::size_t i = 0; i < scratch.workers.size(); ++i) {
    const PivotScratch& s = scratch.workers.slot(i).pivot;
    for (std::size_t h = 0; h < rows; ++h) {
      for (std::size_t p = 0; p < s.stride; ++p) {
        sum.leaves[h * sum.stride + p] += s.leaves[h * s.stride + p];
      }
    }
  }
  return sum;
}

/// counts[k] = sum over leaves (h, p) of C(p, k - h), for k = 0..the
/// largest h + p of any leaf (capped at `limit`, the histogram's last row).
/// Binomials come from a Pascal table saturated at 2^64; sums are 128-bit
/// and checked against count_t after every term.
std::vector<count_t> leaf_counts(const PivotScratch& hist, int limit) {
  const std::size_t rows = hist.rows;
  const std::size_t stride = hist.stride;
  std::size_t top = 0;  // the clique number, up to the limit
  for (std::size_t h = 0; h < rows; ++h) {
    for (std::size_t p = 0; p < stride; ++p) {
      if (hist.leaves[h * stride + p] != 0) top = std::max(top, h + p);
    }
  }
  top = std::min(top, static_cast<std::size_t>(limit));

  // binom[p * (top + 1) + i] = min(C(p, i), 2^64) for p < stride, i <= top.
  const wide_count_t saturated = static_cast<wide_count_t>(1) << 64;
  const std::size_t cols = top + 1;
  std::vector<wide_count_t> binom(stride * cols, 0);
  for (std::size_t p = 0; p < stride; ++p) {
    binom[p * cols] = 1;
    for (std::size_t i = 1; i <= std::min(p, top); ++i) {
      binom[p * cols + i] =
          std::min(saturated, binom[(p - 1) * cols + i - 1] + binom[(p - 1) * cols + i]);
    }
  }

  std::vector<count_t> counts(top + 1, 0);
  for (std::size_t k = 1; k <= top; ++k) {
    wide_count_t total = 0;
    for (std::size_t h = 0; h <= k && h < rows; ++h) {
      for (std::size_t p = k - h; p < stride; ++p) {
        const count_t leaves = hist.leaves[h * stride + p];
        if (leaves == 0) continue;
        const wide_count_t ways = binom[p * cols + (k - h)];
        if (ways == saturated) total = saturated;
        else total += ways * leaves;  // each < 2^128 - 2^65, so no wrap
        if (total > std::numeric_limits<count_t>::max()) {
          throw std::overflow_error("spectrum: the number of " + std::to_string(k) +
                                    "-cliques overflows 64 bits");
        }
      }
    }
    counts[k] = static_cast<count_t>(total);
  }
  return counts;
}

}  // namespace

PivotCounts pivot_spectrum(const Digraph& dag, int kmax, StopSource& stop,
                           QueryScratch& scratch) {
  const int limit = std::min(kmax, static_cast<int>(dag.max_out_degree()) + 1);
  const auto rows = static_cast<std::size_t>(limit) + 1;

  CliqueResult work = scratch.for_each_source(
      stop, CliqueSink{}, /*prune=*/false, dag.num_nodes(), [&](CliqueScratch& w, node_t v) {
        // for_each_source empties each worker's histogram; size it at the
        // worker's first task.
        if (w.pivot.rows == 0) {
          w.pivot.rows = rows;
          w.pivot.stride = 1;
          w.pivot.leaves.assign(rows, 0);
        }
        const auto out_nbrs = dag.out_neighbors(v);
        const int size = limit > 1 ? static_cast<int>(out_nbrs.size()) : 0;
        if (size > 0) {
          build_local_graph(dag, out_nbrs, w.lg, w.local_id);
          ++w.ctr.dense_subproblems;
          const auto sets = static_cast<std::size_t>(2 * (size + 2)) *
                            static_cast<std::size_t>(w.lg.words());
          if (w.pivot.sets.size() < sets) w.pivot.sets.resize(sets);
          bits::fill_prefix(w.pivot.sets.data(), static_cast<std::size_t>(size),
                            static_cast<std::size_t>(w.lg.words()));
        }
        // The source itself is held: the tree counts the cliques whose
        // lowest vertex it is.
        PivotTree tree(w.lg, static_cast<int>(bits::words_for(static_cast<std::size_t>(size))),
                       limit, w);
        tree.expand(0, 1, 0, size);
      });
  work.stats.gamma = work.stats.order_quality = dag.max_out_degree();
  work.stats.top_level_tasks = dag.num_nodes();
  PivotCounts out{{}, work.stats};
  if (stop.limit_reached()) return out;
  out.counts = leaf_counts(merge_leaves(scratch, rows), limit);
  return out;
}

}  // namespace c3
