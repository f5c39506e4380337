// Live-heap accounting for peak_mem_mb: the benchmark binary replaces the
// global operator new/delete with malloc/free plus a count of the bytes in
// use. Peak RSS is not steady enough to gate on: glibc's per-thread arenas
// retain freed memory depending on which pool thread allocated it, so
// identical runs differ by tens of MB. Bytes live through operator new
// depend only on what the program allocates.
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted(void* p) {
  if (p != nullptr) {
    const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
    std::int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (now > peak && !g_peak.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  return p;
}

void* allocate(std::size_t n) {
  void* p = counted(std::malloc(n != 0 ? n : 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(std::malloc(n != 0 ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(std::malloc(n != 0 ? n : 1));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace spttn::e2e {

void reset_peak_mem() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

double peak_mem_mb() {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

}  // namespace spttn::e2e
