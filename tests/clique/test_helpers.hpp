// Shared helpers for the clique algorithm tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "clique/api.hpp"
#include "clique/common.hpp"
#include "clique/engine.hpp"
#include "clique/local_graph.hpp"
#include "graph/graph.hpp"
#include "parallel/parallel.hpp"

namespace c3::testing {

/// Collects listed cliques thread-safely and validates each: correct size,
/// distinct vertices, all pairs adjacent, no duplicates across calls.
class CliqueCollector {
 public:
  CliqueCollector(const Graph& g, int k) : g_(&g), k_(k) {}

  CliqueCallback callback() {
    return [this](std::span<const node_t> clique) {
      std::vector<node_t> sorted(clique.begin(), clique.end());
      std::sort(sorted.begin(), sorted.end());
      const std::lock_guard<std::mutex> lock(mutex_);
      if (static_cast<int>(sorted.size()) != k_) ++bad_size_;
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) ++bad_distinct_;
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        for (std::size_t j = i + 1; j < sorted.size(); ++j) {
          if (!g_->has_edge(sorted[i], sorted[j])) ++bad_edges_;
        }
      }
      if (!seen_.insert(sorted).second) ++duplicates_;
      return true;
    };
  }

  void expect_valid(count_t expected_count) const {
    EXPECT_EQ(bad_size_, 0) << "cliques with wrong size";
    EXPECT_EQ(bad_distinct_, 0) << "cliques with repeated vertices";
    EXPECT_EQ(bad_edges_, 0) << "non-adjacent pairs inside reported cliques";
    EXPECT_EQ(duplicates_, 0) << "cliques reported more than once";
    EXPECT_EQ(seen_.size(), expected_count);
  }

  [[nodiscard]] const std::set<std::vector<node_t>>& cliques() const { return seen_; }

 private:
  const Graph* g_;
  int k_;
  std::mutex mutex_;
  std::set<std::vector<node_t>> seen_;
  int bad_size_ = 0, bad_distinct_ = 0, bad_edges_ = 0, duplicates_ = 0;
};

/// Raises the worker pool to at least four, so the full-pool runs really
/// run several workers, and restores it.
class PoolScope {
 public:
  PoolScope() : saved_(set_num_workers(std::max(4, num_workers()))) {}
  ~PoolScope() { set_num_workers(saved_); }
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  int saved_;
};

/// Forces kcList's dense-subproblem floor (0 = leave it) for one test and
/// restores it.
class DenseFloorScope {
 public:
  explicit DenseFloorScope(int floor) : saved_(dense_subproblem_min_vertices()) {
    if (floor > 0) set_dense_subproblem_min_vertices(floor);
  }
  ~DenseFloorScope() { set_dense_subproblem_min_vertices(saved_); }
  DenseFloorScope(const DenseFloorScope&) = delete;
  DenseFloorScope& operator=(const DenseFloorScope&) = delete;

 private:
  int saved_;
};

/// Checks the spectrum (capped at `kmax`, 0 = none) of each of the five
/// prepared engines against that engine's own count(k) for every
/// k = 1..omega while the spectrum's count stays at most
/// `max_checked_count` (the per-k searches enumerate every clique, so a
/// graph with billions of mid-size cliques needs a cap), and
/// count(omega + 1) == 0 when the spectrum is uncapped and fully checked;
/// every engine must also report the same spectrum. Hybrid and ArbCount
/// orient by the approximate order, so this also cross-checks the pass
/// under different orientations. Returns c3List's spectrum.
inline CliqueSpectrum expect_spectrum_agreement(const Graph& g, int kmax,
                                                const std::string& label,
                                                count_t max_checked_count = UINT64_MAX) {
  CliqueSpectrum first;
  for (const Algorithm alg : {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid,
                              Algorithm::KCList, Algorithm::ArbCount}) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    const CliqueSpectrum s = engine.spectrum(kmax);
    const std::string where = label + " " + algorithm_name(alg);
    // counts runs over k = 0..omega, and keeps k = 0, 1 even when omega = 0.
    EXPECT_EQ(s.counts.size(), std::max<std::size_t>(s.omega + 1, 2)) << where;
    int checked = 0;
    while (checked < static_cast<int>(s.omega) &&
           s.counts[static_cast<std::size_t>(checked) + 1] <= max_checked_count) {
      const int k = ++checked;
      EXPECT_EQ(s.counts[static_cast<std::size_t>(k)], engine.count(k).count)
          << where << " k=" << k;
    }
    if ((kmax == 0 || static_cast<int>(s.omega) < kmax) && checked == static_cast<int>(s.omega)) {
      EXPECT_EQ(engine.count(static_cast<int>(s.omega) + 1).count, 0u) << where;
    }
    if (alg == Algorithm::C3List) {
      first = s;
    } else {
      EXPECT_EQ(s.counts, first.counts) << where << " vs c3List";
      EXPECT_EQ(s.omega, first.omega) << where << " vs c3List";
    }
  }
  return first;
}

}  // namespace c3::testing
