// Tests for the closed-form helpers of Section 3 / Theorem 2.1.
#include "clique/combinatorics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "clique/bruteforce.hpp"
#include "graph/gen/generators.hpp"

namespace c3 {
namespace {

TEST(Combinatorics, BinomialBasics) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 6), 0u);
  EXPECT_EQ(binomial(6, 2), 15u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(52, 5), 2'598'960u);
}

TEST(Combinatorics, BinomialIsExactWheneverItFits) {
  // A 64-bit running product overflows on these before its division does.
  EXPECT_EQ(binomial(66, 33), 7219428434016265740u);
  EXPECT_EQ(binomial(67, 33), 14226520737620288370u);
  EXPECT_EQ(binomial(320, 8), 2496767727736920u);
  EXPECT_EQ(binomial_checked(67, 33), std::optional<count_t>(14226520737620288370u));
  EXPECT_EQ(binomial_checked(5, 6), std::optional<count_t>(0));
}

TEST(Combinatorics, BinomialReportsWhatDoesNotFit) {
  EXPECT_FALSE(binomial_checked(68, 34).has_value());
  EXPECT_FALSE(binomial_checked(320, 11).has_value());
  EXPECT_TRUE(binomial_checked(320, 10).has_value());
  EXPECT_EQ(binomial(68, 34), std::numeric_limits<count_t>::max());  // saturates
}

TEST(Combinatorics, BinomialPascalRule) {
  for (count_t n = 1; n <= 20; ++n) {
    for (count_t k = 1; k <= n; ++k) {
      ASSERT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << n << " choose " << k;
    }
  }
}

TEST(Combinatorics, TuranCliquesMatchBruteForce) {
  for (const node_t n : {7, 10, 12}) {
    for (const node_t r : {2, 3, 4, 5}) {
      const Graph g = turan_graph(n, r);
      for (node_t k = 1; k <= r; ++k) {
        ASSERT_EQ(cliques_in_turan(n, r, k), brute_force_count(g, static_cast<int>(k)))
            << "n=" << n << " r=" << r << " k=" << k;
      }
      ASSERT_EQ(cliques_in_turan(n, r, r + 1), 0u);
    }
  }
}

TEST(Combinatorics, Theorem21GrowthBehaviour) {
  // The paper's improvement: the base (gamma+4-k)/2 *shrinks* with k, so the
  // bound beats the fixed-base (s/2)^(k-2) of Danisch et al. by a factor
  // that grows exponentially in k (Section 1.3).
  const double gamma = 20;
  auto fixed_base = [&](int k) {
    double r = 1.0;
    for (int i = 0; i < k - 2; ++i) r *= gamma / 2.0;
    return r;
  };
  double prev_ratio = 1.0;
  for (int k = 4; k <= 20; ++k) {
    const double ratio = theorem21_growth(gamma, k) / fixed_base(k);
    ASSERT_LE(ratio, prev_ratio) << "k=" << k;  // advantage grows with k
    prev_ratio = ratio;
  }
  EXPECT_LT(prev_ratio, 1e-6);  // exponential separation by k = 20
  EXPECT_EQ(theorem21_growth(gamma, static_cast<int>(gamma) + 4), 0.0);
  EXPECT_DOUBLE_EQ(theorem21_growth(gamma, 2), 1.0);
  // For fixed k it grows with gamma.
  EXPECT_LT(theorem21_growth(10, 6), theorem21_growth(30, 6));
}

TEST(Combinatorics, RelevantCountsEdgeCases) {
  EXPECT_EQ(relevant_vertex_count(5, 10), 0u);
  EXPECT_EQ(relevant_vertex_count(5, 4), 0u);
  EXPECT_EQ(relevant_vertex_count(5, 3), 1u);
  EXPECT_EQ(relevant_pair_count(2, 0), 1u);   // one pair, distance 0
  EXPECT_EQ(relevant_pair_count(1, 0), 0u);
  EXPECT_EQ(relevant_pair_count(6, 3), 3u);   // Figure 5
}

TEST(Combinatorics, CompleteCliquesConsistency) {
  for (count_t n = 1; n <= 12; ++n) {
    count_t total = 0;
    for (count_t k = 1; k <= n; ++k) total += cliques_in_complete(n, k);
    // Sum over all clique sizes = 2^n - 1 subsets.
    ASSERT_EQ(total, (count_t{1} << n) - 1) << "n=" << n;
  }
}

}  // namespace
}  // namespace c3
