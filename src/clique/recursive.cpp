#include "clique/recursive.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "util/bitkernels.hpp"
#include "util/bitwords.hpp"

namespace c3 {
namespace {

/// dst = row_a & row_b & mask & open-interval(a, b); returns |dst|.
/// This is line 8 of Algorithm 2: I' <- I ∩ C(e), where the community of
/// (a, b) inside the local DAG is exactly the common neighborhood restricted
/// to vertices ordered strictly between a and b. One fused kernel call
/// (util/bitkernels.hpp) — AND3 + interval masking + popcount in a single
/// pass over the interval's words.
int intersect_community(const std::uint64_t* row_a, const std::uint64_t* row_b,
                        const std::uint64_t* mask, int words, int a, int b, std::uint64_t* dst,
                        LocalCounters& ctr) noexcept {
  const auto lo = static_cast<std::size_t>(a) + 1;
  const std::size_t hi = static_cast<std::size_t>(b) - 1;
  if (hi < lo) {
    bits::clear_words(dst, static_cast<std::size_t>(words));
    return 0;
  }
  ctr.intersection_words += bits::word_index(hi) - bits::word_index(lo) + 1;
  return static_cast<int>(
      kern::intersect_interval(row_a, row_b, mask, dst, static_cast<std::size_t>(words), lo, hi));
}

/// Emits one complete clique from the listing stack; returns false when the
/// callback requests early termination.
bool emit(SearchContext& ctx) {
  return (*ctx.callback)(std::span<const node_t>(ctx.clique_stack));
}

/// Pushes local vertices onto the partial clique of a listing or tally
/// search, and pops them again on scope exit.
template <Mode M>
class StackPush {
 public:
  StackPush(SearchContext& ctx, std::initializer_list<int> locals)
      : ctx_(ctx), size_(locals.size()) {
    for (const int a : locals) {
      if constexpr (M == Mode::List) ctx_.clique_stack.push_back(ctx_.member_to_orig[a]);
      if constexpr (M == Mode::Tally) ctx_.local_stack.push_back(a);
    }
  }
  StackPush(const StackPush&) = delete;
  StackPush& operator=(const StackPush&) = delete;
  ~StackPush() {
    if constexpr (M == Mode::List) ctx_.clique_stack.resize(ctx_.clique_stack.size() - size_);
    if constexpr (M == Mode::Tally) ctx_.local_stack.resize(ctx_.local_stack.size() - size_);
  }

  /// Tally mode: credits the `found` cliques of the subtree below this push
  /// to the pushed vertices, the edges among them, and their edges to the
  /// older stack entries.
  void credit(count_t found) {
    static_assert(M == Mode::Tally);
    if (found == 0) return;
    const std::vector<int>& st = ctx_.local_stack;
    const bool edges = ctx_.tally_edges();
    for (std::size_t i = st.size() - size_; i < st.size(); ++i) {
      ctx_.local_counts[static_cast<std::size_t>(st[i])] += found;
      if (!edges) continue;
      for (std::size_t j = 0; j < i; ++j) ctx_.tally->edge[ctx_.edge_slot(st[j], st[i])] += found;
    }
  }

 private:
  SearchContext& ctx_;
  std::size_t size_;
};

/// Tally-mode c == 1 leaf: each candidate in `mask` closes one clique with
/// the stack. Returns r = |mask|.
count_t tally_leaf1(SearchContext& ctx, const std::uint64_t* mask) {
  const auto words = static_cast<std::size_t>(ctx.words);
  const bool edges = ctx.tally_edges();
  count_t found = 0;
  bits::for_each_bit(mask, words, [&](std::size_t a) {
    ++found;
    ++ctx.local_counts[a];
    if (!edges) return;
    for (const int s : ctx.local_stack)
      ++ctx.tally->edge[ctx.edge_slot(s, static_cast<int>(a))];
  });
  ctx.ctr->leaf_work += found;
  return found;
}

/// Tally-mode c == 2 leaf: each edge inside `mask` closes one clique with
/// the stack, so a candidate a lies in d(a) = |N(a) ∩ mask| of them.
/// Returns the number of edges inside the mask.
count_t tally_leaf2(SearchContext& ctx, const std::uint64_t* mask) {
  const LocalGraph& lg = *ctx.lg;
  const auto words = static_cast<std::size_t>(ctx.words);
  const bool edges = ctx.tally_edges();
  count_t twice = 0;
  bits::for_each_bit(mask, words, [&](std::size_t abit) {
    const int a = static_cast<int>(abit);
    const count_t d = kern::popcount_and(lg.row(a), mask, words);
    if (d == 0) return;
    twice += d;
    ctx.local_counts[abit] += d;
    if (!edges) return;
    for (const int s : ctx.local_stack) ctx.tally->edge[ctx.edge_slot(s, a)] += d;
    kern::for_each_bit_and(lg.row(a), mask, words, [&](std::size_t b) {
      if (static_cast<int>(b) > a) ++ctx.tally->edge[ctx.edge_slot(a, static_cast<int>(b))];
    });
  });
  ctx.ctr->leaf_work += twice / 2;
  return twice / 2;
}

/// The edge-growth recursion of Algorithm 2 over candidates I (mask I_mask)
/// for c more vertices. Aligned to a cache line, like kcList's descend:
/// where the function starts decides how its inner loops fall on 64-byte
/// boundaries.
template <Mode M>
[[gnu::aligned(64)]] count_t pairs(SearchContext& ctx, std::span<const int> I,
                                   const std::uint64_t* I_mask, int c, int level) {
  assert(c >= 1);
  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const int words = ctx.words;

  // Base case c == 1 (Algorithm 2, line 2): every candidate is a clique.
  if (c == 1) {
    if constexpr (M == Mode::Tally) return tally_leaf1(ctx, I_mask);
    ctr.leaf_work += I.size();
    if constexpr (M == Mode::Count) return static_cast<count_t>(I.size());
    count_t emitted = 0;
    for (const int a : I) {
      if (ctx.poll_stop()) break;
      ctx.clique_stack.push_back(ctx.member_to_orig[a]);
      const bool keep_going = emit(ctx);
      ctx.clique_stack.pop_back();
      ++emitted;
      if (!keep_going) {
        ctx.request_stop();
        break;
      }
    }
    return emitted;
  }

  // Base case c == 2 (line 4): every edge inside I is a clique.
  if (c == 2) {
    if constexpr (M == Mode::Tally) {
      ctr.intersection_words += I.size() * static_cast<std::size_t>(words);
      return tally_leaf2(ctx, I_mask);
    }
    if constexpr (M == Mode::Count) {
      count_t twice = 0;
      for (const int a : I) {
        twice += kern::popcount_and(lg.row(a), I_mask, static_cast<std::size_t>(words));
      }
      ctr.intersection_words += I.size() * static_cast<std::size_t>(words);
      ctr.leaf_work += twice / 2;
      return twice / 2;
    }
    count_t emitted = 0;
    for (const int a : I) {
      if (ctx.poll_stop()) break;
      kern::for_each_bit_and(lg.row(a), I_mask, static_cast<std::size_t>(words),
                             [&](std::size_t b) {
                               if (ctx.poll_stop() || static_cast<int>(b) <= a) return;
                               ctx.clique_stack.push_back(ctx.member_to_orig[a]);
                               ctx.clique_stack.push_back(ctx.member_to_orig[b]);
                               if (!emit(ctx)) ctx.request_stop();
                               ctx.clique_stack.pop_back();
                               ctx.clique_stack.pop_back();
                               ++emitted;
                             });
    }
    ctr.leaf_work += emitted;
    return emitted;
  }

  // Recursive case (lines 6-10). The relevant-pair criterion: with I kept
  // sorted, delta_I(I[i], I[j]) = j - i - 1, so only j >= i + c - 1 can
  // support a further (c)-clique through the pair (Figure 2).
  const int t = static_cast<int>(I.size());
  const int gap = ctx.prune ? c - 2 : 0;
  std::uint64_t* community = ctx.mask_at(level);
  count_t total = 0;

  for (int i = 0; i < t && !ctx.stopped; ++i) {
    const int a = I[static_cast<std::size_t>(i)];
    const std::uint64_t* row_a = lg.row(a);
    for (int j = i + 1 + gap; j < t && !ctx.stopped; ++j) {
      const int b = I[static_cast<std::size_t>(j)];
      ++ctr.pairs_probed;
      if (!bits::test_bit(row_a, static_cast<std::size_t>(b))) continue;  // line 7
      ++ctr.edges_matched;

      const int isz =
          intersect_community(row_a, lg.row(b), I_mask, words, a, b, community, ctr);
      if (isz < c - 2) continue;  // too few candidates to finish the clique

      if constexpr (M == Mode::Count) {
        if (c - 2 == 1) {
          // Leaf shortcut: each surviving candidate completes one clique.
          ++ctr.recursive_calls;
          ctr.leaf_work += static_cast<count_t>(isz);
          total += static_cast<count_t>(isz);
          continue;
        }
        if (c - 2 == 2) {
          // Leaf shortcut: count the edges inside the community mask directly.
          ++ctr.recursive_calls;
          count_t twice = 0;
          bits::for_each_bit(community, static_cast<std::size_t>(words), [&](std::size_t x) {
            twice += kern::popcount_and(lg.row(static_cast<int>(x)), community,
                                        static_cast<std::size_t>(words));
          });
          ctr.intersection_words += static_cast<count_t>(isz) * static_cast<count_t>(words);
          ctr.leaf_work += twice / 2;
          total += twice / 2;
          continue;
        }
      }
      if constexpr (M == Mode::Tally) {
        if (c - 2 <= 2) {
          // The same leaf shortcuts, tallied on the community mask.
          ++ctr.recursive_calls;
          if (ctx.poll_stop()) break;
          StackPush<M> push(ctx, {a, b});
          if (c - 2 == 2) {
            ctr.intersection_words += static_cast<count_t>(isz) * static_cast<count_t>(words);
          }
          const count_t found =
              c - 2 == 1 ? tally_leaf1(ctx, community) : tally_leaf2(ctx, community);
          push.credit(found);
          total += found;
          continue;
        }
      }

      // Materialize the new candidate array (ascending == rank order) and
      // recurse with budget c - 2.
      int* next = ctx.cand_at(level);
      int pos = 0;
      bits::for_each_bit(community, static_cast<std::size_t>(words),
                         [&](std::size_t x) { next[pos++] = static_cast<int>(x); });
      StackPush<M> push(ctx, {a, b});
      const count_t found = pairs<M>(
          ctx, std::span<const int>(next, static_cast<std::size_t>(pos)), community, c - 2,
          level + 1);
      if constexpr (M == Mode::Tally) push.credit(found);
      total += found;
    }
  }
  return total;
}

/// Calls f(x) for the first `limit` set bits x of `a`, ascending, until f
/// returns false.
template <typename F>
void for_each_leading_bit(const std::uint64_t* a, std::size_t nwords, std::uint64_t limit, F&& f) {
  for (std::size_t w = 0; w < nwords && limit > 0; ++w) {
    for (std::uint64_t word = a[w]; word != 0 && limit > 0; word &= word - 1, --limit) {
      if (!f(w * bits::kWordBits + static_cast<std::size_t>(std::countr_zero(word)))) return;
    }
  }
}

/// The vertex-growth recursion over `mask`, which holds p candidates, for
/// c more vertices. Position prune: the i-th candidate (from 0) has p - i - 1
/// candidates above it, so only the first p - c + 1 can start a clique; the
/// rest are skipped without an intersection (the counterpart of Algorithm
/// 2's relevant-pair criterion).
///
/// Aligned to a cache line, like kcList's descend: where the function starts
/// decides how its inner loops fall on 64-byte boundaries.
template <Mode M>
[[gnu::aligned(64)]] count_t vertices(SearchContext& ctx, const std::uint64_t* mask,
                                      std::uint64_t p, int c, int level) {
  assert(c >= 1);
  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const auto words = static_cast<std::size_t>(ctx.words);

  // Base case c == 1: every remaining candidate completes a clique.
  if (c == 1) {
    if constexpr (M == Mode::Tally) return tally_leaf1(ctx, mask);
    ctr.leaf_work += p;
    if constexpr (M == Mode::List) {
      bits::for_each_bit(mask, words, [&](std::size_t x) {
        if (ctx.poll_stop()) return;
        ctx.clique_stack.push_back(ctx.member_to_orig[x]);
        if (!emit(ctx)) ctx.request_stop();
        ctx.clique_stack.pop_back();
      });
    }
    return p;
  }

  // Base case c == 2 in tally mode: every edge inside the mask is a clique.
  if constexpr (M == Mode::Tally) {
    if (c == 2) {
      ctr.intersection_words += p * words;
      return tally_leaf2(ctx, mask);
    }
  }

  const auto need = static_cast<std::uint64_t>(c - 1);
  if (p <= need) return 0;  // no candidate has c - 1 candidates above it
  std::uint64_t* next = ctx.mask_at(level);
  count_t total = 0;
  for_each_leading_bit(mask, words, p - need, [&](std::size_t x) {
    // next = candidates after x that are adjacent to x, count fused in.
    ctr.intersection_words += words - bits::word_index(x);
    ctr.pairs_probed += 1;
    const std::uint64_t isz = kern::intersect_above(lg.row(static_cast<int>(x)), mask, next,
                                                    words, x);

    if (c == 2) {
      ctr.leaf_work += isz;
      total += static_cast<count_t>(isz);
      if constexpr (M == Mode::List) {
        bits::for_each_bit(next, words, [&](std::size_t y) {
          if (ctx.poll_stop()) return;
          ctx.clique_stack.push_back(ctx.member_to_orig[x]);
          ctx.clique_stack.push_back(ctx.member_to_orig[y]);
          if (!emit(ctx)) ctx.request_stop();
          ctx.clique_stack.pop_back();
          ctx.clique_stack.pop_back();
        });
      }
      return !ctx.stopped;
    }
    if (isz < need) return true;
    ++ctr.edges_matched;
    if constexpr (M == Mode::Count) {
      if (c == 3) {
        // In-line c == 2 level: count the edges inside next, each of its
        // first isz - 1 candidates probing the ones above it.
        ++ctr.recursive_calls;
        std::uint64_t* above = ctx.mask_at(level + 1);
        for_each_leading_bit(next, words, isz - 1, [&](std::size_t y) {
          ctr.intersection_words += words - bits::word_index(y);
          ctr.pairs_probed += 1;
          const std::uint64_t d =
              kern::intersect_above(lg.row(static_cast<int>(y)), next, above, words, y);
          ctr.leaf_work += d;
          total += static_cast<count_t>(d);
          return true;
        });
        return true;
      }
    }
    StackPush<M> push(ctx, {static_cast<int>(x)});
    const count_t found = vertices<M>(ctx, next, isz, c - 1, level + 1);
    if constexpr (M == Mode::Tally) push.credit(found);
    total += found;
    return !ctx.stopped;
  });
  return total;
}

}  // namespace

void SearchContext::ensure_capacity(int gamma, int depth, int words) {
  const auto g = static_cast<std::size_t>(std::max(gamma, 1));
  const auto d = static_cast<std::size_t>(std::max(depth, 1));
  const auto w = static_cast<std::size_t>(std::max(words, 1));
  if (g <= cand_stride_ && w <= mask_stride_ && d <= depth_) return;
  cand_stride_ = std::max(cand_stride_, g);
  mask_stride_ = std::max(mask_stride_, w);
  depth_ = std::max(depth_, d);
  cand_pool_.assign(depth_ * cand_stride_, 0);
  mask_pool_.assign(depth_ * mask_stride_, 0);
}

edge_t* SearchContext::begin_tally_task(int n) {
  const auto size = static_cast<std::size_t>(n);
  // Growth value-initializes, keeping the all-zero-between-tasks invariant.
  if (local_counts.size() < size) local_counts.resize(size);
  local_stack.clear();
  if (!tally_edges()) return nullptr;
  if (edge_slots.size() < size * size) edge_slots.resize(size * size);
  return edge_slots.data();
}

count_t search_cliques(SearchContext& ctx, std::span<const int> I, const std::uint64_t* I_mask,
                       int c, int level) {
  return with_mode(ctx, [&](auto mode) {
    return pairs<decltype(mode)::value>(ctx, I, I_mask, c, level);
  });
}

count_t search_cliques_vertex(SearchContext& ctx, const std::uint64_t* mask, int c, int level) {
  const std::uint64_t p = kern::popcount(mask, static_cast<std::size_t>(ctx.words));
  return with_mode(ctx, [&](auto mode) {
    return vertices<decltype(mode)::value>(ctx, mask, p, c, level);
  });
}

count_t search_cliques_below(SearchContext& ctx, const std::uint64_t* row, int end, int c) {
  // Every candidate lies below `end`, so the search reads only the words
  // that cover it.
  ctx.words = static_cast<int>(bits::kernel_stride_words(static_cast<std::size_t>(end)));
  const auto words = static_cast<std::size_t>(ctx.words);
  // c drops by 2 per level and only a level with c >= 3 takes a slot, so the
  // search uses slots 0..(c - 3) / 2; the top level borrows the next one.
  const int top_slot = (c - 1) / 2;
  ctx.ensure_capacity(end, top_slot + 1, static_cast<int>(words));
  int* top = ctx.cand_at(top_slot);
  std::uint64_t* mask = ctx.mask_at(top_slot);
  bits::fill_prefix(mask, static_cast<std::size_t>(end), words);
  int t = 0;
  if (row == nullptr) {
    for (; t < end; ++t) top[t] = t;
  } else {
    const std::size_t used = bits::words_for(static_cast<std::size_t>(end));
    bits::and_assign(mask, row, used);
    bits::for_each_bit(mask, used, [&](std::size_t x) { top[t++] = static_cast<int>(x); });
  }
  const std::span<const int> I(top, static_cast<std::size_t>(t));
  return search_cliques(ctx, I, mask, c, 0);
}

count_t search_cliques_vertex_all(SearchContext& ctx, int c) {
  const int n = ctx.lg->size();
  const int words = ctx.lg->words();
  ctx.words = words;
  // One mask slot per level 0..c-2, plus the universe borrowing slot c.
  ctx.ensure_capacity(n, c + 1, words);
  std::uint64_t* universe = ctx.mask_at(c);
  bits::fill_prefix(universe, static_cast<std::size_t>(n), static_cast<std::size_t>(words));
  return search_cliques_vertex(ctx, universe, c, 0);
}

}  // namespace c3
