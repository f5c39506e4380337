// Internal BLAS-style kernels for the innermost dense loops.
//
// The paper offloads independent dense loops to BLAS (xAXPY, xGER, and a
// manually implemented xAXPY on their machines); this repository has no
// external BLAS, so these routines play that role. All take explicit
// strides; unit-stride fast paths are specialized. fold_partials, the
// ordered reduction of per-task and per-rank partial outputs, is built on
// xaxpy.
#pragma once

#include <cstdint>
#include <span>

namespace spttn {

/// y[i*sy] += alpha * x[i*sx]  (BLAS-1 AXPY)
void xaxpy(std::int64_t n, double alpha, const double* x, std::int64_t sx,
           double* y, std::int64_t sy);

/// y[i] += parts[0][i] + parts[1][i] + ... for i < n, folded one part at a
/// time in ascending order (null parts are skipped): the one deterministic
/// reduction of partial results. `tile` > 0 cuts [0, n) into fixed tiles
/// run on the process-wide pool; every element is still summed in part
/// order, so the bits do not depend on the tiling or on the schedule.
void fold_partials(std::span<const double* const> parts, std::int64_t n,
                   double* y, std::int64_t tile);

/// return sum_i x[i*sx] * y[i*sy]  (BLAS-1 DOT)
double xdot(std::int64_t n, const double* x, std::int64_t sx, const double* y,
            std::int64_t sy);

/// z[i*sz] += alpha * x[i*sx] * y[i*sy]  (elementwise triple / Hadamard
/// accumulate; used when producer terms multiply two factor rows)
void xhad(std::int64_t n, double alpha, const double* x, std::int64_t sx,
          const double* y, std::int64_t sy, double* z, std::int64_t sz);

/// a[i*sam + j*san] += alpha * x[i*sx] * y[j*sy]  (BLAS-2 GER)
void xger(std::int64_t m, std::int64_t n, double alpha, const double* x,
          std::int64_t sx, const double* y, std::int64_t sy, double* a,
          std::int64_t sam, std::int64_t san);

/// c[i*scm + j*scn] += alpha * sum_k a[i*sam + k*sak] * b[k*sbk + j*sbn]
/// (BLAS-3 GEMM, ikj loop order with blocking on k)
void xgemm(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
           const double* a, std::int64_t sam, std::int64_t sak,
           const double* b, std::int64_t sbk, std::int64_t sbn, double* c,
           std::int64_t scm, std::int64_t scn);

/// y[i*sy] = 0
void xzero(std::int64_t n, double* y, std::int64_t sy);

}  // namespace spttn
