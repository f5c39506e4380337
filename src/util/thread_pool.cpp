#include "util/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace spttn {

namespace {

/// Set while a thread is executing tasks of some batch; reentrant
/// parallel_apply calls detect it and run inline (a worker blocking on its
/// own pool would deadlock).
thread_local bool tl_in_pool_task = false;

}  // namespace

struct ThreadPool::Impl {
  /// One lane's share of a batch: a contiguous, not-yet-claimed index
  /// range. The owner pops from the front; thieves cut the back half.
  /// Mutex-guarded rather than lock-free: claims are O(ns) against task
  /// bodies that traverse CSF subtrees, and the mutex keeps the protocol
  /// obviously race-free under TSan.
  struct alignas(64) Lane {
    std::mutex m;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  /// One submitted batch. Workers operate on a shared_ptr snapshot, so a
  /// worker that wakes late drains its (empty) lanes instead of touching a
  /// newer batch's state.
  struct Batch {
    std::uint64_t generation = 0;
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::int64_t count = 0;
    std::vector<Lane> lanes;  // one per pool lane (caller = lane 0)
    std::atomic<std::int64_t> finished{0};
    std::mutex err_m;
    std::exception_ptr first_error;  // guarded by err_m
  };

  std::mutex m;
  std::condition_variable wake_cv;
  std::condition_variable done_cv;
  std::shared_ptr<Batch> current;  // guarded by m
  std::uint64_t generation = 0;    // guarded by m
  bool stopping = false;           // guarded by m

  /// Serializes submitters so one batch runs at a time.
  std::mutex submit_m;

  std::atomic<std::uint64_t> steals{0};

  std::vector<std::thread> workers;

  void worker_loop(int lane) {
    std::uint64_t seen = 0;
    while (true) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lk(m);
        wake_cv.wait(lk, [&] {
          return stopping ||
                 (current != nullptr && current->generation != seen);
        });
        if (stopping) return;
        batch = current;
        seen = batch->generation;
      }
      run_tasks(*batch, lane);
    }
  }

  /// Pop an index from the front of the lane's own range; -1 when empty.
  static std::int64_t pop_own(Lane& lane) {
    std::lock_guard<std::mutex> lk(lane.m);
    if (lane.begin >= lane.end) return -1;
    return lane.begin++;
  }

  /// Steal the back half of the fullest other lane into `self`'s lane.
  /// Returns false when every other lane is empty (the batch has no
  /// unclaimed work left — in-flight tasks may still be running).
  bool steal_into(Batch& batch, int self) {
    const int lanes = static_cast<int>(batch.lanes.size());
    while (true) {
      int victim = -1;
      std::int64_t victim_avail = 0;
      for (int k = 1; k < lanes; ++k) {
        const int v = (self + k) % lanes;
        Lane& lane = batch.lanes[static_cast<std::size_t>(v)];
        std::lock_guard<std::mutex> lk(lane.m);
        const std::int64_t avail = lane.end - lane.begin;
        if (avail > victim_avail) {
          victim = v;
          victim_avail = avail;
        }
      }
      if (victim < 0) return false;
      std::int64_t take_b = 0;
      std::int64_t take_e = 0;
      {
        Lane& lane = batch.lanes[static_cast<std::size_t>(victim)];
        std::lock_guard<std::mutex> lk(lane.m);
        const std::int64_t avail = lane.end - lane.begin;
        if (avail <= 0) continue;  // drained since the scan; rescan
        const std::int64_t take = (avail + 1) / 2;
        take_b = lane.end - take;
        take_e = lane.end;
        lane.end = take_b;
      }
      {
        Lane& mine = batch.lanes[static_cast<std::size_t>(self)];
        std::lock_guard<std::mutex> lk(mine.m);
        mine.begin = take_b;
        mine.end = take_e;
      }
      steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }

  /// Claim and run indices until neither the own lane nor any victim has
  /// unclaimed work. Every index is claimed exactly once, so `finished`
  /// reaches count only after every task body has returned — which is what
  /// the submitter waits on.
  void run_tasks(Batch& batch, int self) {
    Lane& mine = batch.lanes[static_cast<std::size_t>(self)];
    std::int64_t ran = 0;
    std::exception_ptr err;
    tl_in_pool_task = true;
    while (true) {
      const std::int64_t i = pop_own(mine);
      if (i < 0) {
        if (!steal_into(batch, self)) break;
        continue;
      }
      try {
        (*batch.fn)(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
      ++ran;
    }
    tl_in_pool_task = false;
    if (err) {
      std::lock_guard<std::mutex> lk(batch.err_m);
      if (!batch.first_error) batch.first_error = err;
    }
    if (ran == 0) return;
    const std::int64_t prev =
        batch.finished.fetch_add(ran, std::memory_order_acq_rel);
    if (prev + ran == batch.count) {
      std::lock_guard<std::mutex> lk(m);  // pair with the submitter's wait
      done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  const int lanes = threads < 1 ? 1 : threads;
  impl_->workers.reserve(static_cast<std::size_t>(lanes - 1));
  for (int w = 0; w < lanes - 1; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->stopping = true;
  }
  impl_->wake_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

int ThreadPool::size() const {
  return static_cast<int>(impl_->workers.size()) + 1;
}

std::uint64_t ThreadPool::steal_count() const {
  return impl_->steals.load(std::memory_order_relaxed);
}

void ThreadPool::parallel_apply(std::int64_t n,
                                const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  if (n == 1 || impl_->workers.empty() || tl_in_pool_task) {
    // Inline: single task, no workers to share with, or a reentrant call
    // from inside one of this pool's tasks.
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> submit(impl_->submit_m);
  const auto lanes =
      static_cast<std::int64_t>(impl_->workers.size()) + 1;
  auto batch = std::make_shared<Impl::Batch>();
  batch->fn = &fn;
  batch->count = n;
  batch->lanes = std::vector<Impl::Lane>(static_cast<std::size_t>(lanes));
  for (std::int64_t l = 0; l < lanes; ++l) {
    batch->lanes[static_cast<std::size_t>(l)].begin = n * l / lanes;
    batch->lanes[static_cast<std::size_t>(l)].end = n * (l + 1) / lanes;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    batch->generation = ++impl_->generation;
    impl_->current = batch;
  }
  impl_->wake_cv.notify_all();
  impl_->run_tasks(*batch, 0);
  std::unique_lock<std::mutex> lk(impl_->m);
  impl_->done_cv.wait(lk, [&] {
    return batch->finished.load(std::memory_order_acquire) == n;
  });
  impl_->current = nullptr;
  if (batch->first_error) std::rethrow_exception(batch->first_error);
}

namespace {

std::mutex& global_pool_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(global_pool_mutex());
  auto& slot = global_pool_slot();
  if (slot == nullptr) {
    slot = std::make_unique<ThreadPool>(default_threads());
  }
  return *slot;
}

void ThreadPool::set_global_threads(int threads) {
  std::lock_guard<std::mutex> lk(global_pool_mutex());
  global_pool_slot() = std::make_unique<ThreadPool>(
      threads >= 1 ? threads : default_threads());
}

int ThreadPool::default_threads() {
  // Deliberately not latched: SPTTN_THREADS is consulted on every call so
  // set_global_threads(0) after an environment change takes effect.
  if (const char* env = std::getenv("SPTTN_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace spttn
