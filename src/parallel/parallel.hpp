// Shared-memory parallel execution substrate.
//
// The paper's algorithms are stated in the work/depth (CREW PRAM) model and
// implemented, as in the original evaluation, on top of OpenMP. This header
// provides the loop primitives used across the library:
//
//   * num_workers / set_num_workers / worker_id — worker pool control,
//   * WorkerCapScope       — per-thread RAII cap, the substrate of per-query
//                            worker limits (caps compose by minimum and never
//                            touch the process-global value),
//   * parallel_for         — statically scheduled counted loop,
//   * parallel_for_dynamic — dynamically scheduled loop for irregular work
//                            (clique search per edge/vertex is highly skewed).
//
// Both loops degrade to plain serial loops when the range is below the grain
// size or a single worker is configured, which keeps recursion-heavy callers
// cheap and makes single-threaded runs exactly deterministic.
#pragma once

#include <cstddef>
#include <cstdint>

namespace c3 {

/// Maximum number of workers parallel loops may use: the process-global cap
/// (set_num_workers), further limited by any WorkerCapScope active on the
/// calling thread.
[[nodiscard]] int num_workers() noexcept;

/// Caps the worker pool; values < 1 are clamped to 1. Atomically swaps the
/// cap and returns the old effective value, so the usual save/restore pair
///   const int old = set_num_workers(1); ... ; set_num_workers(old);
/// round-trips even under concurrent callers.
int set_num_workers(int workers) noexcept;

/// High-water mark of the worker cap: the largest value num_workers() has
/// been able to return so far (the pool default, raised by every
/// set_num_workers call). Per-worker structures sized to max_workers() stay
/// in bounds across later set_num_workers *decreases and re-increases*; only
/// a cap raised above every previous value can outgrow them (PerWorker
/// bounds-clamps for that case).
[[nodiscard]] int max_workers() noexcept;

/// Identifier of the calling worker in [0, num_workers()).
[[nodiscard]] int worker_id() noexcept;

/// True when called from inside a parallel region.
[[nodiscard]] bool in_parallel() noexcept;

/// RAII cap on num_workers() for the *calling thread* and the parallel loops
/// it launches. Unlike set_num_workers this never touches the process-global
/// cap, so any number of threads may cap themselves concurrently without
/// racing each other (the per-query worker caps of QueryOptions::max_workers
/// are built on it). Scopes nest and compose by minimum; `cap <= 0` means "no
/// additional cap" and leaves the thread unchanged. The previous per-thread
/// cap is restored on destruction. A capped thread can never raise the
/// effective worker count above the global cap.
class WorkerCapScope {
 public:
  explicit WorkerCapScope(int cap) noexcept;
  ~WorkerCapScope();
  WorkerCapScope(const WorkerCapScope&) = delete;
  WorkerCapScope& operator=(const WorkerCapScope&) = delete;

 private:
  int saved_;
};

namespace detail {
void parallel_for_impl(std::int64_t begin, std::int64_t end, bool dynamic, std::int64_t grain,
                       void (*body)(std::int64_t, void*), void* ctx);
}  // namespace detail

/// Applies `f(i)` for i in [begin, end), statically scheduled. Falls back to
/// a serial loop when the trip count is below `grain` or only one worker is
/// available.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f, std::size_t grain = 2048) {
  auto thunk = [](std::int64_t i, void* ctx) { (*static_cast<F*>(ctx))(static_cast<std::size_t>(i)); };
  detail::parallel_for_impl(static_cast<std::int64_t>(begin), static_cast<std::int64_t>(end),
                            /*dynamic=*/false, static_cast<std::int64_t>(grain), thunk,
                            const_cast<void*>(static_cast<const void*>(&f)));
}

/// Applies `f(i)` for i in [begin, end) with dynamic scheduling — use when
/// per-iteration work is skewed (e.g. per-edge clique search).
template <typename F>
void parallel_for_dynamic(std::size_t begin, std::size_t end, F&& f, std::size_t grain = 16) {
  auto thunk = [](std::int64_t i, void* ctx) { (*static_cast<F*>(ctx))(static_cast<std::size_t>(i)); };
  detail::parallel_for_impl(static_cast<std::int64_t>(begin), static_cast<std::int64_t>(end),
                            /*dynamic=*/true, static_cast<std::int64_t>(grain), thunk,
                            const_cast<void*>(static_cast<const void*>(&f)));
}

}  // namespace c3
