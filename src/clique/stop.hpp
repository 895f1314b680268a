// One query's stop state: the single mechanism that ends a clique search
// early.
//
// Three things stop a search: a listing callback returning false (a
// HasClique hit, a List limit), the caller's cancel token, and the query's
// wall-clock deadline. All three end in one shared flag that every worker
// polls at each top-level task, each recursion entry, and each emission
// (SearchContext::poll_stop). Reading the flag is one relaxed load; the
// token and the clock are read only every kLimitStride polls per worker,
// plus once as each search begins, so a budget or cancel ends even a search
// that emits nothing within one poll stride per worker. A stop caused by the
// token or the deadline is latched apart from a callback's own stop
// (limit_reached()): that latch, and only it, marks an Answer truncated by
// the budget or the token.
#pragma once

#include <atomic>

#include "util/timer.hpp"

namespace c3 {

class StopSource {
 public:
  /// Polls per worker between two reads of the cancel token and the clock.
  static constexpr unsigned kLimitStride = 256;

  /// No token and no deadline: only a callback can stop the search.
  StopSource() = default;

  /// `cancel` may be null; `budget_seconds` <= 0 means no deadline. The
  /// budget clock starts now.
  StopSource(const std::atomic<bool>* cancel, double budget_seconds) noexcept
      : cancel_(cancel), budget_(budget_seconds) {}

  /// Called as each search starts: clears the previous search's callback
  /// stop (one query may run several searches) and reads the limits once, so
  /// an expired query runs no task at all.
  void begin_search() noexcept {
    flag_.store(false, std::memory_order_relaxed);
    (void)check_limits();
  }

  /// The per-worker poll: true once the search must stop. `polls` is the
  /// calling worker's own counter, which strides the limit reads.
  [[nodiscard]] bool poll(unsigned& polls) noexcept {
    return flag_.load(std::memory_order_relaxed) ||
           (++polls % kLimitStride == 0 && check_limits());
  }

  /// A callback's "stop": every worker observes it at its next poll.
  void request_stop() noexcept { flag_.store(true, std::memory_order_relaxed); }

  /// True once the cancel token or the deadline has cut a search.
  [[nodiscard]] bool limit_reached() const noexcept {
    return limit_reached_.load(std::memory_order_relaxed);
  }

 private:
  /// Reads the token and the clock; on expiry latches limit_reached() and
  /// raises the shared flag.
  bool check_limits() noexcept {
    if (!limit_reached()) {
      const bool cancelled = cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
      if (!cancelled && !(budget_ > 0.0 && timer_.seconds() > budget_)) return false;
      limit_reached_.store(true, std::memory_order_relaxed);
    }
    flag_.store(true, std::memory_order_relaxed);
    return true;
  }

  std::atomic<bool> flag_{false};
  std::atomic<bool> limit_reached_{false};
  const std::atomic<bool>* cancel_ = nullptr;
  double budget_ = 0.0;
  WallTimer timer_;
};

}  // namespace c3
