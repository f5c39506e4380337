// The work-stealing thread pool: exact index coverage, reentrancy,
// exception propagation, steal observability under skewed batches, and
// global-pool reconfiguration (SPTTN_THREADS re-read + set_global_threads).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace spttn {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  for (std::int64_t n : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
                         std::int64_t{3}, std::int64_t{7}, std::int64_t{64},
                         std::int64_t{1000}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_apply(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::int64_t sum = 0;
  pool.parallel_apply(100, [&](std::int64_t i) { sum += i; });  // no races
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPool, ReentrantApplyRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_apply(8, [&](std::int64_t) {
    // A task submitting to its own pool must not deadlock; the nested
    // batch runs inline in this worker.
    pool.parallel_apply(16, [&](std::int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterDrain) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> ran{0};
  EXPECT_THROW(pool.parallel_apply(64,
                                   [&](std::int64_t i) {
                                     ran.fetch_add(1);
                                     if (i == 13) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // The batch drains fully before rethrowing: every index was claimed.
  EXPECT_EQ(ran.load(), 64);
}

// Steal-heavy stress: many tiny tasks on an oversubscribed pool, with the
// front lanes' slices artificially slowed so idle lanes must steal from
// the back halves. The steal counter is the observability contract.
TEST(ThreadPool, StealsAbsorbSkewedBatches) {
  ThreadPool pool(8);  // oversubscribed on small CI machines on purpose
  std::atomic<std::int64_t> total{0};
  bool stole = false;
  for (int attempt = 0; attempt < 100 && !stole; ++attempt) {
    const std::uint64_t before = pool.steal_count();
    const std::int64_t n = 4000;
    pool.parallel_apply(n, [&](std::int64_t i) {
      if (i < n / 8) {
        // Lane 0's initial slice is slow: everyone else runs dry and must
        // steal to keep the batch moving.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      total.fetch_add(1);
    });
    stole = pool.steal_count() > before;
  }
  EXPECT_TRUE(stole) << "no steal observed across 100 skewed batches";
  EXPECT_EQ(total.load() % 4000, 0);
}

TEST(ThreadPool, DefaultThreadsReReadsEnvironment) {
  const char* old = std::getenv("SPTTN_THREADS");
  const std::string saved = old != nullptr ? old : "";
  setenv("SPTTN_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 5);
  // No function-local latch: a later change must be visible immediately.
  setenv("SPTTN_THREADS", "2", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 2);
  if (old != nullptr) {
    setenv("SPTTN_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("SPTTN_THREADS");
  }
}

TEST(ThreadPool, SetGlobalThreadsRebuildsThePool) {
  const char* old = std::getenv("SPTTN_THREADS");
  const std::string saved = old != nullptr ? old : "";

  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3);
  std::atomic<std::int64_t> total{0};
  ThreadPool::global().parallel_apply(
      100, [&](std::int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);

  // Values < 1 mean "re-read the environment": embedders mutating
  // SPTTN_THREADS after first pool use are no longer silently ignored.
  setenv("SPTTN_THREADS", "2", 1);
  ThreadPool::set_global_threads(0);
  EXPECT_EQ(ThreadPool::global().size(), 2);

  if (old != nullptr) {
    setenv("SPTTN_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("SPTTN_THREADS");
  }
  ThreadPool::set_global_threads(0);  // restore the default-sized pool
  EXPECT_EQ(ThreadPool::global().size(), ThreadPool::default_threads());
}

}  // namespace
}  // namespace spttn
