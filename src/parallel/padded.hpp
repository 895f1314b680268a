// Cache-line padded per-worker storage.
//
// Parallel counting algorithms accumulate into one cell per worker and reduce
// at the end; padding each cell to a cache line avoids false sharing, which
// would otherwise serialize the hot counting loops.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "parallel/parallel.hpp"

namespace c3 {

// Fixed at the x86-64 / common-ARM value rather than
// std::hardware_destructive_interference_size, whose value is not ABI-stable
// across compiler flags (GCC warns about exactly this).
inline constexpr std::size_t kCacheLineSize = 64;

/// A value padded to occupy at least one cache line.
template <typename T>
struct alignas(kCacheLineSize) Padded {
  T value{};
};

/// One padded slot per worker, with a combining reduction.
///
/// Sized to max_workers() — the cap's high-water mark, not its current value
/// — so a set_num_workers increase *back up to* any previously seen cap
/// cannot push worker_id() past the slot count. A cap raised above every
/// previous value after construction is caught by the bounds clamp in
/// local(), which turns what used to be an out-of-bounds access into
/// sharing the last slot. Sharing is only race-free for atomic payloads;
/// raising the cap while a loop over a non-atomic PerWorker is in flight
/// remains unsupported (as all mid-loop cap changes are) — rebuild the
/// PerWorker after growing the pool, as QueryScratch::for_each_source does.
template <typename T>
class PerWorker {
 public:
  PerWorker() : slots_(static_cast<std::size_t>(max_workers())) {}
  explicit PerWorker(const T& init) : slots_(static_cast<std::size_t>(max_workers()), Padded<T>{init}) {}

  /// The calling worker's slot (the last slot for out-of-range ids).
  [[nodiscard]] T& local() noexcept {
    const auto id = static_cast<std::size_t>(worker_id());
    return slots_[id < slots_.size() ? id : slots_.size() - 1].value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] T& slot(std::size_t i) noexcept { return slots_[i].value; }
  [[nodiscard]] const T& slot(std::size_t i) const noexcept { return slots_[i].value; }

  /// Folds all slots with `combine(acc, slot)`, starting from `init`.
  template <typename Combine>
  [[nodiscard]] T reduce(T init, Combine&& combine) const {
    T acc = std::move(init);
    for (const auto& s : slots_) acc = combine(std::move(acc), s.value);
    return acc;
  }

 private:
  std::vector<Padded<T>> slots_;
};

}  // namespace c3
