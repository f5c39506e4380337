#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "exec/kernels.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace spttn {
namespace {

std::vector<double> rand_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = 2 * rng.next_double() - 1;
  return v;
}

TEST(Kernels, AxpyUnitStride) {
  Rng rng(1);
  auto x = rand_vec(37, rng);
  auto y = rand_vec(37, rng);
  auto want = y;
  for (std::size_t i = 0; i < x.size(); ++i) want[i] += 0.5 * x[i];
  xaxpy(37, 0.5, x.data(), 1, y.data(), 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], want[i]);
  }
}

TEST(Kernels, AxpyStrided) {
  Rng rng(2);
  auto x = rand_vec(40, rng);
  auto y = rand_vec(60, rng);
  auto want = y;
  for (int i = 0; i < 10; ++i) want[static_cast<std::size_t>(i * 6)] +=
      2.0 * x[static_cast<std::size_t>(i * 4)];
  xaxpy(10, 2.0, x.data(), 4, y.data(), 6);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], want[i]);
  }
}

TEST(Kernels, DotUnitAndStrided) {
  Rng rng(3);
  auto x = rand_vec(50, rng);
  auto y = rand_vec(50, rng);
  double want = 0;
  for (std::size_t i = 0; i < 50; ++i) want += x[i] * y[i];
  EXPECT_NEAR(xdot(50, x.data(), 1, y.data(), 1), want, 1e-12);
  want = 0;
  for (int i = 0; i < 25; ++i) {
    want += x[static_cast<std::size_t>(2 * i)] *
            y[static_cast<std::size_t>(2 * i)];
  }
  EXPECT_NEAR(xdot(25, x.data(), 2, y.data(), 2), want, 1e-12);
}

TEST(Kernels, HadamardAccumulate) {
  Rng rng(4);
  auto x = rand_vec(20, rng);
  auto y = rand_vec(20, rng);
  auto z = rand_vec(20, rng);
  auto want = z;
  for (std::size_t i = 0; i < 20; ++i) want[i] += 3.0 * x[i] * y[i];
  xhad(20, 3.0, x.data(), 1, y.data(), 1, z.data(), 1);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(z[i], want[i]);
}

TEST(Kernels, GerMatchesNaive) {
  Rng rng(5);
  const int m = 7, n = 9;
  auto x = rand_vec(m, rng);
  auto y = rand_vec(n, rng);
  auto a = rand_vec(static_cast<std::size_t>(m * n), rng);
  auto want = a;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      want[static_cast<std::size_t>(i * n + j)] +=
          1.5 * x[static_cast<std::size_t>(i)] *
          y[static_cast<std::size_t>(j)];
    }
  }
  xger(m, n, 1.5, x.data(), 1, y.data(), 1, a.data(), n, 1);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], want[i]);
}

TEST(Kernels, GemmMatchesNaive) {
  Rng rng(7);
  const int m = 5, n = 6, k = 7;
  auto a = rand_vec(static_cast<std::size_t>(m * k), rng);
  auto b = rand_vec(static_cast<std::size_t>(k * n), rng);
  auto c = rand_vec(static_cast<std::size_t>(m * n), rng);
  auto want = c;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int kk = 0; kk < k; ++kk) {
        acc += a[static_cast<std::size_t>(i * k + kk)] *
               b[static_cast<std::size_t>(kk * n + j)];
      }
      want[static_cast<std::size_t>(i * n + j)] += acc;
    }
  }
  xgemm(m, n, k, 1.0, a.data(), k, 1, b.data(), n, 1, c.data(), n, 1);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], want[i], 1e-12);
  }
}

TEST(Kernels, GemmTransposedViaStrides) {
  // C += A^T * B expressed purely with strides.
  Rng rng(8);
  const int m = 4, n = 3, k = 5;
  auto a = rand_vec(static_cast<std::size_t>(k * m), rng);  // stored k x m
  auto b = rand_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  xgemm(m, n, k, 1.0, a.data(), /*sam=*/1, /*sak=*/m, b.data(), n, 1,
        c.data(), n, 1);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double want = 0;
      for (int kk = 0; kk < k; ++kk) {
        want += a[static_cast<std::size_t>(kk * m + i)] *
                b[static_cast<std::size_t>(kk * n + j)];
      }
      EXPECT_NEAR(c[static_cast<std::size_t>(i * n + j)], want, 1e-12);
    }
  }
}

TEST(Kernels, ZeroStridedAndUnit) {
  std::vector<double> v(12, 5.0);
  xzero(6, v.data(), 2);
  for (int i = 0; i < 12; ++i) {
    EXPECT_DOUBLE_EQ(v[static_cast<std::size_t>(i)], i % 2 == 0 ? 0.0 : 5.0);
  }
  xzero(12, v.data(), 1);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

/// Values spread over 60 binary orders of magnitude, so the order of a
/// floating-point sum changes its bits.
std::vector<double> wide_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = std::ldexp(2 * rng.next_double() - 1,
                   static_cast<int>(rng.next_in(-30, 30)));
  }
  return v;
}

// fold_partials with tile > 0 (the shared-memory all-reduce cuts 8192
// element tiles, the executor's partial fold 4096) must reproduce the
// untiled fold bit for bit: every element is still summed in part order,
// whatever the tiling, the lane count or the schedule.
TEST(Kernels, TiledFoldBitIdenticalToUntiled) {
  Rng rng(5);
  const std::int64_t n = 10007;  // prime: no tile below n divides it
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::vector<double>> storage;
  for (int p = 0; p < 5; ++p) storage.push_back(wide_vec(un, rng));
  // Null parts are idle ranks or tasks that wrote nothing.
  const std::vector<const double*> parts = {
      storage[0].data(), nullptr, storage[2].data(), nullptr,
      storage[4].data()};
  const std::vector<double> y0 = wide_vec(un, rng);
  std::vector<double> want = y0;
  fold_partials(parts, n, want.data(), /*tile=*/0);

  // The data is order-sensitive: folding the parts in reverse moves bits.
  const std::vector<const double*> reversed(parts.rbegin(), parts.rend());
  std::vector<double> rev = y0;
  fold_partials(reversed, n, rev.data(), /*tile=*/0);
  ASSERT_NE(std::memcmp(rev.data(), want.data(), un * sizeof(double)), 0);

  for (const int lanes : {1, 4}) {
    testing::ScopedLanes scoped(lanes);
    for (const std::int64_t tile : {std::int64_t{1}, std::int64_t{7},
                                    std::int64_t{4096}, std::int64_t{8192},
                                    n, n + 1}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + " tile " +
                   std::to_string(tile));
      std::vector<double> got = y0;
      fold_partials(parts, n, got.data(), tile);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), un * sizeof(double)), 0);
    }
  }
}

TEST(Kernels, EmptyLengthsAreNoops) {
  double x = 1, y = 2;
  xaxpy(0, 3.0, &x, 1, &y, 1);
  EXPECT_DOUBLE_EQ(y, 2);
  EXPECT_DOUBLE_EQ(xdot(0, &x, 1, &y, 1), 0.0);
}

}  // namespace
}  // namespace spttn
