// Shared helpers for the clique algorithm tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <vector>

#include "clique/common.hpp"
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

}  // namespace c3::testing
