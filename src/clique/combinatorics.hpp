// Closed forms from the paper's combinatorial analysis (Section 3) and
// clique-count identities used by tests and the Table 1 bench.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "graph/types.hpp"

namespace c3 {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
/// Unsigned 128-bit integer: the width clique counts are accumulated in
/// before they are checked against count_t.
using wide_count_t = unsigned __int128;
#pragma GCC diagnostic pop

/// Binomial coefficient C(n, k), or nullopt when it exceeds count_t. Step i
/// computes C(n - k + i, i) = C(n - k + i - 1, i - 1) * (n - k + i) / i with
/// the product in 128 bits, so it is exact whenever the result fits: the
/// partial results grow with i, and each fits in 64 bits before it is
/// multiplied by a factor below 2^64.
[[nodiscard]] constexpr std::optional<count_t> binomial_checked(count_t n, count_t k) noexcept {
  if (k > n) return count_t{0};
  if (k > n - k) k = n - k;
  count_t result = 1;
  for (count_t i = 1; i <= k; ++i) {
    const wide_count_t next = static_cast<wide_count_t>(result) * (n - k + i) / i;
    if (next > std::numeric_limits<count_t>::max()) return std::nullopt;
    result = static_cast<count_t>(next);
  }
  return result;
}

/// Binomial coefficient C(n, k), saturated at the largest count_t when it
/// does not fit (see binomial_checked).
[[nodiscard]] constexpr count_t binomial(count_t n, count_t k) noexcept {
  return binomial_checked(n, k).value_or(std::numeric_limits<count_t>::max());
}

/// Observation 3: |P+_c(V)| = |P-_c(V)| = |V| - (c + 1) relevant out/in
/// vertices (0 when |V| <= c + 1).
[[nodiscard]] constexpr count_t relevant_vertex_count(count_t universe, count_t c) noexcept {
  return universe > c + 1 ? universe - (c + 1) : 0;
}

/// Observation 4: |R^P_c(V)| = C(|V| - c, 2) relevant pairs.
[[nodiscard]] constexpr count_t relevant_pair_count(count_t universe, count_t c) noexcept {
  return universe >= c ? binomial(universe - c, 2) : 0;
}

/// The paper's leaf-work growth base ((gamma + 4 - k) / 2)^(k-2) from
/// Theorem 2.1 / Lemma 2.3, as a double for bound-vs-measured comparisons.
[[nodiscard]] inline double theorem21_growth(double gamma, int k) {
  if (k < 2) return 1.0;
  const double base = (gamma + 4.0 - static_cast<double>(k)) / 2.0;
  if (base <= 0.0) return 0.0;
  double result = 1.0;
  for (int i = 0; i < k - 2; ++i) result *= base;
  return result;
}

/// Number of k-cliques in the complete graph K_n.
[[nodiscard]] constexpr count_t cliques_in_complete(count_t n, count_t k) noexcept {
  return binomial(n, k);
}

/// Number of k-cliques in the Turán graph T(n, r) (complete r-partite with
/// balanced parts): choose k distinct parts and one vertex from each. With
/// a = n mod r parts of size q+1 and r-a parts of size q (q = n / r):
/// count = sum_j C(a, j) * C(r-a, k-j) * (q+1)^j * q^(k-j).
[[nodiscard]] constexpr count_t cliques_in_turan(node_t n, node_t r, node_t k) noexcept {
  if (r == 0 || k > r) return 0;
  const count_t q = n / r;
  const count_t a = n % r;
  count_t total = 0;
  for (count_t j = 0; j <= k; ++j) {
    if (j > a || k - j > r - a) continue;
    count_t term = binomial(a, j) * binomial(r - a, k - j);
    for (count_t i = 0; i < j; ++i) term *= q + 1;
    for (count_t i = 0; i < k - j; ++i) term *= q;
    total += term;
  }
  return total;
}

}  // namespace c3
