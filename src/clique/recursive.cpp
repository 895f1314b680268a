#include "clique/recursive.hpp"

#include <algorithm>
#include <cassert>

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

count_t search_cliques(SearchContext& ctx, std::span<const int> I, const std::uint64_t* I_mask,
                       int c, int level) {
  assert(c >= 1);
  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const int words = lg.words();
  const bool listing = ctx.callback != nullptr;

  // Base case c == 1 (Algorithm 2, line 2): every candidate is a clique.
  if (c == 1) {
    ctr.leaf_work += I.size();
    if (!listing) return static_cast<count_t>(I.size());
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
    if (!listing) {
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

      if (c - 2 == 1 && !listing) {
        // Leaf shortcut: each surviving candidate completes one clique.
        ++ctr.recursive_calls;
        ctr.leaf_work += static_cast<count_t>(isz);
        total += static_cast<count_t>(isz);
        continue;
      }
      if (c - 2 == 2 && !listing) {
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

      // Materialize the new candidate array (ascending == rank order) and
      // recurse with budget c - 2.
      int* next = ctx.cand_at(level);
      int pos = 0;
      bits::for_each_bit(community, static_cast<std::size_t>(words),
                         [&](std::size_t x) { next[pos++] = static_cast<int>(x); });
      if (listing) {
        ctx.clique_stack.push_back(ctx.member_to_orig[a]);
        ctx.clique_stack.push_back(ctx.member_to_orig[b]);
      }
      total += search_cliques(ctx, std::span<const int>(next, static_cast<std::size_t>(pos)),
                              community, c - 2, level + 1);
      if (listing) {
        ctx.clique_stack.pop_back();
        ctx.clique_stack.pop_back();
      }
    }
  }
  return total;
}

count_t search_cliques_tri(SearchContext& ctx, std::span<const int> I,
                           const std::uint64_t* I_mask, int c, int level) {
  // The pair-growth bases already handle c <= 3 (a triangle is counted at
  // its supporting pair with one popcount).
  if (c <= 3) return search_cliques(ctx, I, I_mask, c, level);

  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const int words = lg.words();
  const bool listing = ctx.callback != nullptr;
  const int t = static_cast<int>(I.size());
  const int gap = ctx.prune ? c - 2 : 0;
  std::uint64_t* community = ctx.mask_at(level);
  std::uint64_t* inner = ctx.mask_at(level + 1);
  count_t total = 0;

  for (int i = 0; i < t && !ctx.stopped; ++i) {
    const int a = I[static_cast<std::size_t>(i)];
    const std::uint64_t* row_a = lg.row(a);
    for (int j = i + 1 + gap; j < t && !ctx.stopped; ++j) {
      const int b = I[static_cast<std::size_t>(j)];
      ++ctr.pairs_probed;
      if (!bits::test_bit(row_a, static_cast<std::size_t>(b))) continue;
      ++ctr.edges_matched;
      const int bsz = intersect_community(row_a, lg.row(b), I_mask, words, a, b, community, ctr);
      if (bsz < c - 2) continue;

      // Grow by the third triangle vertex: the minimal internal member x.
      bits::for_each_bit(community, static_cast<std::size_t>(words), [&](std::size_t xbit) {
        if (ctx.stopped) return;
        const int x = static_cast<int>(xbit);
        // inner = community ∩ N(x) ∩ {> x}, fused with its popcount.
        ctr.intersection_words += static_cast<std::size_t>(words) - bits::word_index(xbit);
        const std::uint64_t isz = kern::intersect_above(
            lg.row(x), community, inner, static_cast<std::size_t>(words), xbit);
        if (isz < static_cast<std::uint64_t>(c - 3)) return;

        if (c - 3 == 1 && !listing) {
          ++ctr.recursive_calls;
          ctr.leaf_work += isz;
          total += isz;
          return;
        }
        int* next = ctx.cand_at(level);
        int pos = 0;
        bits::for_each_bit(inner, static_cast<std::size_t>(words),
                           [&](std::size_t y) { next[pos++] = static_cast<int>(y); });
        if (listing) {
          ctx.clique_stack.push_back(ctx.member_to_orig[a]);
          ctx.clique_stack.push_back(ctx.member_to_orig[b]);
          ctx.clique_stack.push_back(ctx.member_to_orig[x]);
        }
        total += search_cliques_tri(ctx, std::span<const int>(next, static_cast<std::size_t>(pos)),
                                    inner, c - 3, level + 2);
        if (listing) {
          ctx.clique_stack.pop_back();
          ctx.clique_stack.pop_back();
          ctx.clique_stack.pop_back();
        }
      });
    }
  }
  return total;
}

count_t search_cliques_all(SearchContext& ctx, int c, bool triangle_growth) {
  const int n = ctx.lg->size();
  const int words = ctx.lg->words();
  // Depth bound: c shrinks by >= 2 per level (pair growth) and the triangle
  // variant consumes two mask slots per level; c + 3 covers both with slack.
  ctx.ensure_capacity(n, c + 3, words);
  int* universe = ctx.cand_at(c + 2);  // top level borrows the last slot
  for (int i = 0; i < n; ++i) universe[i] = i;
  std::uint64_t* mask = ctx.mask_at(c + 2);
  bits::fill_prefix(mask, static_cast<std::size_t>(n), static_cast<std::size_t>(words));
  const std::span<const int> all(universe, static_cast<std::size_t>(n));
  return triangle_growth ? search_cliques_tri(ctx, all, mask, c, 0)
                         : search_cliques(ctx, all, mask, c, 0);
}

count_t search_cliques_vertex(SearchContext& ctx, const std::uint64_t* mask, int c, int level) {
  assert(c >= 1);
  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const auto words = static_cast<std::size_t>(lg.words());
  const bool listing = ctx.callback != nullptr;

  // Base case c == 1: every remaining candidate completes a clique.
  if (c == 1) {
    const count_t found = kern::popcount(mask, words);
    ctr.leaf_work += found;
    if (!listing) return found;
    bits::for_each_bit(mask, words, [&](std::size_t x) {
      if (ctx.poll_stop()) return;
      ctx.clique_stack.push_back(ctx.member_to_orig[x]);
      if (!emit(ctx)) ctx.request_stop();
      ctx.clique_stack.pop_back();
    });
    return found;
  }

  std::uint64_t* next = ctx.mask_at(level);
  count_t total = 0;
  bits::for_each_bit(mask, words, [&](std::size_t x) {
    if (ctx.stopped) return;
    // next = candidates after x that are adjacent to x, count fused in.
    ctr.intersection_words += words - bits::word_index(x);
    ctr.pairs_probed += 1;
    const std::uint64_t isz = kern::intersect_above(lg.row(static_cast<int>(x)), mask, next,
                                                    words, x);

    if (c == 2) {
      ctr.leaf_work += isz;
      total += static_cast<count_t>(isz);
      if (listing) {
        bits::for_each_bit(next, words, [&](std::size_t y) {
          if (ctx.poll_stop()) return;
          ctx.clique_stack.push_back(ctx.member_to_orig[x]);
          ctx.clique_stack.push_back(ctx.member_to_orig[y]);
          if (!emit(ctx)) ctx.request_stop();
          ctx.clique_stack.pop_back();
          ctx.clique_stack.pop_back();
        });
      }
      return;
    }
    if (isz >= static_cast<std::uint64_t>(c - 1)) {
      ++ctr.edges_matched;
      if (listing) ctx.clique_stack.push_back(ctx.member_to_orig[x]);
      total += search_cliques_vertex(ctx, next, c - 1, level + 1);
      if (listing) ctx.clique_stack.pop_back();
    }
  });
  return total;
}

count_t search_cliques_vertex_all(SearchContext& ctx, int c) {
  const int n = ctx.lg->size();
  const int words = ctx.lg->words();
  // One mask slot per level 0..c-2, plus the universe borrowing slot c.
  ctx.ensure_capacity(n, c + 1, words);
  std::uint64_t* universe = ctx.mask_at(c);
  bits::fill_prefix(universe, static_cast<std::size_t>(n), static_cast<std::size_t>(words));
  return search_cliques_vertex(ctx, universe, c, 0);
}

}  // namespace c3
