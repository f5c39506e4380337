// Communication-backend suite: the transport seam of the distributed
// runtime. ModeledComm must reproduce the historical inline alpha-beta
// charging bit-for-bit; ShmemComm must produce bit-identical kernel
// outputs with measured (not charged) collective seconds; both must agree
// under sequential and concurrent rank scheduling, including empty-rank
// and ranks-greater-than-nnz partitions. Runs in the TSan CI job (the
// shmem transport moves real bytes on the process-wide pool).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dist/comm_backend.hpp"
#include "dist/comm_model.hpp"
#include "dist/dist_spttn.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

/// Run `dist` over a fresh backend and return the outputs (exactly one of
/// dense/sparse is populated, matching the kernel's output kind).
struct RunOut {
  DistResult res;
  DenseTensor dense;
  std::vector<double> sparse;
};

RunOut run_with(const DistSpttn& dist, const BoundKernel& bound,
                const std::string& backend, int ranks, std::int64_t nnz,
                bool concurrent, int local_threads = 1) {
  RunOut out;
  const auto comm = make_comm_backend(backend, ranks);
  if (bound.kernel.output_is_sparse()) {
    out.sparse.assign(static_cast<std::size_t>(nnz), 0.0);
    out.res = dist.run(*comm, {}, nullptr, out.sparse, local_threads,
                       concurrent);
  } else {
    out.dense = make_output(bound);
    out.res = dist.run(*comm, {}, &out.dense, {}, local_threads, concurrent);
  }
  return out;
}

void expect_bit_identical(const RunOut& want, const RunOut& got) {
  if (want.sparse.empty()) {
    ASSERT_EQ(want.dense.max_abs_diff(got.dense), 0.0);
  } else {
    ASSERT_EQ(want.sparse.size(), got.sparse.size());
    for (std::size_t e = 0; e < want.sparse.size(); ++e) {
      ASSERT_EQ(want.sparse[e], got.sparse[e]) << "entry " << e;
    }
  }
}

// Every paper kernel (dense and sparse outputs), both shipped backends,
// sequential and concurrent rank scheduling: outputs must be bit-identical
// across all four combinations (the backend contract folds partials in
// ascending rank order, so neither transport nor schedule may change a
// bit).
TEST(CommBackendEquivalence, WholeSuiteBitIdenticalAcrossBackends) {
  testing::ScopedLanes lanes(4);
  const auto kernels = paper_kernels();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    SCOPED_TRACE(kernels[i].name);
    const auto inst =
        testing::make_instance(kernels[i], 7100 + static_cast<int>(i));
    const int ranks = 3;  // uneven cyclic partitions
    DistSpttn dist(inst->bound, ranks);
    const std::int64_t nnz = inst->sparse.nnz();
    const RunOut want =
        run_with(dist, inst->bound, "modeled", ranks, nnz, false);
    for (const bool concurrent : {false, true}) {
      SCOPED_TRACE(concurrent ? "concurrent" : "sequential");
      const RunOut modeled =
          run_with(dist, inst->bound, "modeled", ranks, nnz, concurrent);
      const RunOut shmem =
          run_with(dist, inst->bound, "shmem", ranks, nnz, concurrent);
      expect_bit_identical(want, modeled);
      expect_bit_identical(want, shmem);
      EXPECT_TRUE(modeled.res.modeled);
      EXPECT_FALSE(shmem.res.modeled);
      EXPECT_EQ(modeled.res.backend, "modeled");
      EXPECT_EQ(shmem.res.backend, "shmem");
    }
  }
}

// Hybrid rank x thread execution stays bit-identical across transports
// (each rank's local nest partitions the same way regardless of where its
// factor views live).
TEST(CommBackendEquivalence, HybridLocalThreadsMatchAcrossBackends) {
  testing::ScopedLanes lanes(4);
  for (int kernel_idx : {0, 4}) {  // mttkrp3 (dense out), tttp3 (sparse out)
    SCOPED_TRACE(paper_kernels()[static_cast<std::size_t>(kernel_idx)].name);
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        7200 + kernel_idx);
    const int ranks = 3;
    DistSpttn dist(inst->bound, ranks);
    const std::int64_t nnz = inst->sparse.nnz();
    const RunOut want = run_with(dist, inst->bound, "modeled", ranks, nnz,
                                 false, /*local_threads=*/2);
    const RunOut got = run_with(dist, inst->bound, "shmem", ranks, nnz,
                                false, /*local_threads=*/2);
    expect_bit_identical(want, got);
  }
}

// More ranks than nonzeros: most ranks own nothing. Both backends must
// skip idle ranks (no partials, no gathered reads that matter) and still
// merge the few live partials correctly, sequentially and concurrently.
TEST(CommBackendEquivalence, RanksGreaterThanNnzEdgeCase) {
  testing::ScopedLanes lanes(4);
  Rng rng(99);
  CooTensor t({6, 5, 4});
  t.push_back({0, 1, 2}, 1.5);
  t.push_back({3, 2, 1}, -2.0);
  t.push_back({5, 4, 3}, 0.75);
  t.sort_dedup();
  const DenseTensor b = random_dense({5, 3}, rng);
  const DenseTensor c = random_dense({4, 3}, rng);
  const BoundKernel dense_bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const DenseTensor u = random_dense({6, 3}, rng);
  const BoundKernel sparse_bound =
      bind("Y(i,j,k) = T(i,j,k)*U(i,r)*B(j,r)*C(k,r)", t, {&u, &b, &c});
  for (const BoundKernel* bound : {&dense_bound, &sparse_bound}) {
    SCOPED_TRACE(bound->kernel.output_is_sparse() ? "sparse-out"
                                                  : "dense-out");
    const int ranks = 7;  // > nnz == 3, so at least four ranks are empty
    DistSpttn dist(*bound, ranks);
    std::int64_t live = 0;
    for (const std::int64_t n : dist.local_nnz()) live += n > 0 ? 1 : 0;
    ASSERT_LT(live, ranks);
    const RunOut want = run_with(dist, *bound, "modeled", ranks, 3, false);
    for (const std::string backend : {"modeled", "shmem"}) {
      for (const bool concurrent : {false, true}) {
        SCOPED_TRACE(backend + (concurrent ? "/concurrent" : "/sequential"));
        const RunOut got =
            run_with(dist, *bound, backend, ranks, 3, concurrent);
        expect_bit_identical(want, got);
      }
    }
  }
}

// The refactor is behavior-preserving: ModeledComm's comm charge must
// equal the historical inline charging — one allgather per dense factor
// plus one all-reduce of the dense output, priced by dist/comm_model.hpp —
// exactly (same doubles, same sum).
TEST(ModeledComm, ReproducesInlineAlphaBetaCharging) {
  const CommParams params;
  for (std::size_t i = 0; i < paper_kernels().size(); ++i) {
    SCOPED_TRACE(paper_kernels()[i].name);
    const auto inst =
        testing::make_instance(paper_kernels()[i], 7300 + static_cast<int>(i));
    const int ranks = 4;
    DistSpttn dist(inst->bound, ranks);
    const RunOut got = run_with(dist, inst->bound, "modeled", ranks,
                                inst->sparse.nnz(), false);
    double want_seconds = 0;
    std::int64_t want_bytes = 0;
    for (const DenseTensor* d : inst->bound.dense) {
      if (d == nullptr) continue;
      const std::int64_t bytes =
          d->size() * static_cast<std::int64_t>(sizeof(double));
      want_bytes += bytes;
      want_seconds += allgather_seconds(bytes, ranks, params);
    }
    if (!inst->bound.kernel.output_is_sparse()) {
      const std::int64_t bytes =
          make_output(inst->bound).size() *
          static_cast<std::int64_t>(sizeof(double));
      want_bytes += bytes;
      want_seconds += allreduce_seconds(bytes, ranks, params);
    }
    EXPECT_EQ(got.res.comm_seconds, want_seconds);
    EXPECT_EQ(got.res.comm_bytes, want_bytes);
    EXPECT_EQ(got.res.time(), got.res.max_local_seconds + want_seconds);
  }
}

// The event log carries the per-collective breakdown: one allgather per
// dense factor, one all-reduce for dense outputs (none for sparse), and
// the kind-wise totals partition the summed fields exactly.
TEST(CommBackendEvents, BreakdownPartitionsTotals) {
  for (const std::string backend : {"modeled", "shmem"}) {
    SCOPED_TRACE(backend);
    for (int kernel_idx : {0, 4}) {  // dense out, sparse out
      const auto inst = testing::make_instance(
          paper_kernels()[static_cast<std::size_t>(kernel_idx)],
          7400 + kernel_idx);
      const int ranks = 4;
      DistSpttn dist(inst->bound, ranks);
      const RunOut got = run_with(dist, inst->bound, backend, ranks,
                                  inst->sparse.nnz(), false);
      int factors = 0;
      for (const DenseTensor* d : inst->bound.dense) factors += d != nullptr;
      const bool sparse_out = inst->bound.kernel.output_is_sparse();
      const CommBreakdown ag =
          got.res.breakdown(CollectiveKind::kAllgather);
      const CommBreakdown ar =
          got.res.breakdown(CollectiveKind::kAllreduce);
      EXPECT_EQ(ag.count, factors);
      EXPECT_EQ(ar.count, sparse_out ? 0 : 1);
      EXPECT_EQ(static_cast<int>(got.res.events.size()),
                ag.count + ar.count);
      EXPECT_EQ(ag.bytes + ar.bytes, got.res.comm_bytes);
      EXPECT_DOUBLE_EQ(ag.seconds + ar.seconds, got.res.comm_seconds);
      EXPECT_GT(ag.bytes, 0);
      for (const CommEvent& ev : got.res.events) {
        EXPECT_EQ(ev.modeled, backend == "modeled");
        EXPECT_GE(ev.seconds, 0.0);
      }
    }
  }
}

TEST(CommBackendEvents, SingleRankIssuesNoCollectives) {
  for (const std::string backend : {"modeled", "shmem"}) {
    SCOPED_TRACE(backend);
    const auto inst = testing::make_instance(paper_kernels()[0], 7500);
    DistSpttn dist(inst->bound, 1);
    const RunOut got =
        run_with(dist, inst->bound, backend, 1, inst->sparse.nnz(), false);
    EXPECT_TRUE(got.res.events.empty());
    EXPECT_EQ(got.res.comm_seconds, 0.0);
    EXPECT_EQ(got.res.comm_bytes, 0);
  }
}

// Backend instances are reusable across runs: begin_run resets the event
// log and gathered replicas, so a rank-count-matched backend can serve an
// iterative driver without accumulating stale events.
TEST(CommBackendEvents, BackendReuseResetsEventLog) {
  const auto inst = testing::make_instance(paper_kernels()[0], 7600);
  const int ranks = 4;
  DistSpttn dist(inst->bound, ranks);
  ShmemComm comm(ranks);
  DenseTensor out1 = make_output(inst->bound);
  DenseTensor out2 = make_output(inst->bound);
  const DistResult r1 = dist.run(comm, {}, &out1, {});
  const DistResult r2 = dist.run(comm, {}, &out2, {});
  EXPECT_EQ(r1.events.size(), r2.events.size());
  EXPECT_EQ(out1.max_abs_diff(out2), 0.0);
}

TEST(CommBackend, RejectsRankMismatchAndUnknownNames) {
  const auto inst = testing::make_instance(paper_kernels()[0], 7700);
  DistSpttn dist(inst->bound, 3);
  ModeledComm comm(4);
  DenseTensor out = make_output(inst->bound);
  EXPECT_THROW(dist.run(comm, {}, &out, {}), Error);
  EXPECT_THROW(make_comm_backend("infiniband", 2), Error);
  EXPECT_THROW(make_comm_backend("mpi", 2), Error);
  const auto names = comm_backend_names();
  ASSERT_GE(names.size(), 2u);
  for (const std::string& n : names) {
    EXPECT_EQ(make_comm_backend(n, 2)->name(), n);
  }
}

TEST(CommParamsValidation, RejectsNegativeAndNaNConstants) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto reject = [&](double alpha, double beta) {
    CommParams p;
    p.alpha_seconds = alpha;
    p.beta_seconds_per_byte = beta;
    EXPECT_THROW(ModeledComm(2, p), Error);
  };
  reject(-1e-6, 1e-10);
  reject(1e-6, -1e-10);
  reject(nan, 1e-10);
  reject(1e-6, nan);
  reject(inf, 1e-10);
  // Every backend validates through the shared CommBackend constructor.
  CommParams bad;
  bad.alpha_seconds = nan;
  EXPECT_THROW(ModeledComm(2, bad), Error);
  bad = {};
  bad.beta_seconds_per_byte = -1.0;
  EXPECT_THROW(ShmemComm(2, bad), Error);
  // Zero is a legitimate constant (pure-bandwidth or pure-latency models).
  CommParams zero;
  zero.alpha_seconds = 0.0;
  zero.beta_seconds_per_byte = 0.0;
  EXPECT_NO_THROW(ModeledComm(2, zero));
}

// ShmemComm's clock is real: on payloads this size the measured seconds
// are positive (steady_clock resolution is well below a multi-megabyte
// copy), and the factor replicas each rank reads are value-identical to
// the source.
TEST(ShmemComm, MeasuresRealMovement) {
  Rng rng(3);
  const int ranks = 4;
  ShmemComm comm(ranks);
  comm.begin_run();
  const DenseTensor factor = random_dense({512, 256}, rng);  // 1 MiB
  const int slot = comm.allgather(factor);
  ASSERT_EQ(comm.events().size(), 1u);
  const CommEvent ev = comm.events()[0];
  EXPECT_EQ(ev.kind, CollectiveKind::kAllgather);
  EXPECT_EQ(ev.bytes,
            factor.size() * static_cast<std::int64_t>(sizeof(double)));
  EXPECT_FALSE(ev.modeled);
  EXPECT_GT(ev.seconds, 0.0);
  for (int r = 0; r < ranks; ++r) {
    const DenseTensor& rep = comm.gathered(r, slot);
    ASSERT_NE(&rep, &factor);  // a real replica, not the source
    EXPECT_EQ(rep.max_abs_diff(factor), 0.0);
  }
}

}  // namespace
}  // namespace spttn
