#include "exec/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "util/thread_pool.hpp"

namespace spttn {

void xaxpy(std::int64_t n, double alpha, const double* x, std::int64_t sx,
           double* y, std::int64_t sy) {
  if (sx == 1 && sy == 1) {
    for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) y[i * sy] += alpha * x[i * sx];
}

void fold_partials(std::span<const double* const> parts, std::int64_t n,
                   double* y, std::int64_t tile) {
  if (n <= 0) return;
  const auto fold_range = [&](std::int64_t begin, std::int64_t len) {
    for (const double* p : parts) {
      if (p != nullptr) xaxpy(len, 1.0, p + begin, 1, y + begin, 1);
    }
  };
  if (tile <= 0 || tile >= n) {
    fold_range(0, n);
    return;
  }
  const std::int64_t tiles = (n + tile - 1) / tile;
  ThreadPool::global().parallel_apply(tiles, [&](std::int64_t t) {
    const std::int64_t begin = t * tile;
    fold_range(begin, std::min(tile, n - begin));
  });
}

double xdot(std::int64_t n, const double* x, std::int64_t sx, const double* y,
            std::int64_t sy) {
  double acc = 0;
  if (sx == 1 && sy == 1) {
    for (std::int64_t i = 0; i < n; ++i) acc += x[i] * y[i];
    return acc;
  }
  for (std::int64_t i = 0; i < n; ++i) acc += x[i * sx] * y[i * sy];
  return acc;
}

void xhad(std::int64_t n, double alpha, const double* x, std::int64_t sx,
          const double* y, std::int64_t sy, double* z, std::int64_t sz) {
  if (sx == 1 && sy == 1 && sz == 1) {
    for (std::int64_t i = 0; i < n; ++i) z[i] += alpha * x[i] * y[i];
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    z[i * sz] += alpha * x[i * sx] * y[i * sy];
  }
}

void xger(std::int64_t m, std::int64_t n, double alpha, const double* x,
          std::int64_t sx, const double* y, std::int64_t sy, double* a,
          std::int64_t sam, std::int64_t san) {
  for (std::int64_t i = 0; i < m; ++i) {
    xaxpy(n, alpha * x[i * sx], y, sy, a + i * sam, san);
  }
}

void xgemm(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
           const double* a, std::int64_t sam, std::int64_t sak,
           const double* b, std::int64_t sbk, std::int64_t sbn, double* c,
           std::int64_t scm, std::int64_t scn) {
  // ikj order: streams b and c rows; adequate for the small dense factors
  // SpTTN kernels involve.
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double aik = alpha * a[i * sam + kk * sak];
      if (aik == 0.0) continue;
      xaxpy(n, aik, b + kk * sbk, sbn, c + i * scm, scn);
    }
  }
}

void xzero(std::int64_t n, double* y, std::int64_t sy) {
  if (sy == 1) {
    std::memset(y, 0, static_cast<std::size_t>(n) * sizeof(double));
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) y[i * sy] = 0.0;
}

}  // namespace spttn
