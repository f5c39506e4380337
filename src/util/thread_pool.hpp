// Persistent shared-memory thread pool — the parallel substrate for the
// executor's root-loop partitioning, the planner's group search, and the
// simulated distributed runtime's concurrent ranks.
//
// One pool is created per instance; ThreadPool::global() holds a lazily
// constructed process-wide pool sized to the hardware (rebuildable via
// set_global_threads). The one way to run work is an indexed batch
// (parallel_apply): the calling thread participates, so a pool of size 1
// degenerates to an inline loop with zero synchronization.
//
// Scheduling is work-stealing over index ranges: every lane (each worker
// plus the caller) owns a deque holding a contiguous slice of the batch's
// index space. A lane pops single indices from the front of its own slice;
// when it runs dry it steals the *back half* of the largest slice another
// lane still holds. Static nnz-balanced chunking upstream gives each lane
// roughly even work; stealing absorbs the per-chunk variance (dense-factor
// cache effects, skewed subtrees) that static partitioning cannot see.
//
// Batches from nested or concurrent callers are safe: a worker that calls
// parallel_apply recursively runs its batch inline instead of deadlocking
// on its own pool, and concurrent top-level submitters serialize.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace spttn {

class ThreadPool {
 public:
  /// Create a pool presenting `threads` lanes of parallelism (the calling
  /// thread counts as one lane, so `threads - 1` workers are spawned).
  /// threads < 1 is clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lanes of parallelism (worker threads + the caller).
  int size() const;

  /// Run fn(0) ... fn(n-1), distributing indices across the pool's lanes;
  /// the calling thread participates and the call returns only when every
  /// index has finished. [0, n) is split into one contiguous slice per
  /// lane; lanes drain their own slice front-to-back and steal half of a
  /// victim's remaining slice when idle, so uneven tasks load-balance
  /// without a shared counter. The first exception thrown by any task is
  /// rethrown in the caller after the batch drains. Reentrant calls (from
  /// inside a task) run inline in the calling worker.
  void parallel_apply(std::int64_t n,
                      const std::function<void(std::int64_t)>& fn);

  /// Successful steals performed by this pool's lanes since construction.
  /// Monotonic; observability hook for the steal-heavy stress tests and
  /// the scaling benches (a zero count on a skewed input means the static
  /// partition was already balanced).
  std::uint64_t steal_count() const;

  /// Process-wide pool, created on first use with default_threads() lanes.
  /// Persistent for the process lifetime: benches and repeated executions
  /// reuse the same workers instead of respawning threads per call.
  static ThreadPool& global();

  /// Replace the process-wide pool with one of `threads` lanes (values < 1
  /// mean "re-read default_threads()", so embedders can apply a changed
  /// SPTTN_THREADS after first use). Must not race with concurrent use of
  /// global() batches — call from a quiescent point (test setup, embedder
  /// init/reconfig).
  static void set_global_threads(int threads);

  /// Hardware concurrency, overridable via the SPTTN_THREADS environment
  /// variable; at least 1. Re-read on every call (no latching), so tests
  /// and embedders may change the environment and rebuild the global pool
  /// with set_global_threads(0).
  static int default_threads();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spttn
