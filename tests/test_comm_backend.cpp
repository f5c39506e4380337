// Transport suite of the distributed runtime. ShmemComm must produce
// bit-identical kernel outputs under sequential and concurrent rank
// scheduling, including empty-rank and ranks-greater-than-nnz partitions;
// every collective it issues carries measured seconds and the exact
// alpha-beta price of dist/comm.hpp. Runs in the TSan CI job (the
// transport moves real bytes on the process-wide pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "dist/dist_spttn.hpp"
#include "exec/reference.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

/// Run `dist` over `comm` and return the outputs (exactly one of
/// dense/sparse is populated, matching the kernel's output kind).
struct RunOut {
  DistResult res;
  DenseTensor dense;
  std::vector<double> sparse;
};

RunOut run_with(const DistSpttn& dist, const BoundKernel& bound,
                ShmemComm& comm, std::int64_t nnz, bool concurrent,
                int local_threads = 1) {
  RunOut out;
  if (bound.kernel.output_is_sparse()) {
    out.sparse.assign(static_cast<std::size_t>(nnz), 0.0);
    out.res = dist.run(comm, {}, nullptr, out.sparse, local_threads,
                       concurrent);
  } else {
    out.dense = make_output(bound);
    out.res = dist.run(comm, {}, &out.dense, {}, local_threads, concurrent);
  }
  return out;
}

/// The same over a fresh ShmemComm with default CommParams.
RunOut run_with(const DistSpttn& dist, const BoundKernel& bound, int ranks,
                std::int64_t nnz, bool concurrent, int local_threads = 1) {
  ShmemComm comm(ranks);
  return run_with(dist, bound, comm, nnz, concurrent, local_threads);
}

/// The collectives a run over `ranks` issues, in order, each priced by
/// dist/comm.hpp: an allgather per dense factor not indexed by the sparse
/// root index, in slot order; then, for a dense output led by the root
/// index, an all-reduce of the rows of the roots the cuts split (when a cut
/// splits one) and an allgather of the whole output, and for any other
/// dense output one all-reduce of the whole output.
std::vector<CommEvent> expected_events(const BoundKernel& bound,
                                       const DistSpttn& dist, int ranks,
                                       const CommParams& params) {
  const Kernel& k = bound.kernel;
  const int root = k.sparse_ref().idx.front();
  const auto bytes_of = [](std::int64_t elems) {
    return elems * static_cast<std::int64_t>(sizeof(double));
  };
  std::vector<CommEvent> want;
  for (std::size_t i = 0; i < bound.dense.size(); ++i) {
    const DenseTensor* d = bound.dense[i];
    if (d == nullptr) continue;
    const std::vector<int>& idx = k.input(static_cast<int>(i)).idx;
    if (std::find(idx.begin(), idx.end(), root) != idx.end()) continue;
    const std::int64_t bytes = bytes_of(d->size());
    want.push_back({CollectiveKind::kAllgather, bytes, 0,
                    allgather_seconds(bytes, ranks, params)});
  }
  if (k.output_is_sparse()) return want;
  const DenseTensor out = make_output(bound);
  const std::int64_t out_bytes = bytes_of(out.size());
  if (k.output().idx.front() != root) {
    want.push_back({CollectiveKind::kAllreduce, out_bytes, 0,
                    allreduce_seconds(out_bytes, ranks, params)});
    return want;
  }
  const std::int64_t cut =
      testing::cut_root_count(dist.leaf_cuts(), bound.csf);
  if (cut > 0) {
    const std::int64_t bytes = cut * bytes_of(out.size() / out.dim(0));
    want.push_back({CollectiveKind::kAllreduce, bytes, 0,
                    allreduce_seconds(bytes, ranks, params)});
  }
  want.push_back({CollectiveKind::kAllgather, out_bytes, 0,
                  allgather_seconds(out_bytes, ranks, params)});
  return want;
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

// Every paper kernel (dense and sparse outputs), sequential and concurrent
// rank scheduling: outputs must be bit-identical (the all-reduce folds
// partials in ascending rank order, so the schedule may not change a bit).
TEST(RankScheduling, WholeSuiteBitIdentical) {
  testing::ScopedLanes lanes(4);
  const auto kernels = paper_kernels();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    SCOPED_TRACE(kernels[i].name);
    const auto inst =
        testing::make_instance(kernels[i], 7100 + static_cast<int>(i));
    const int ranks = 3;  // uneven fiber-range partitions
    DistSpttn dist(inst->bound, ranks);
    const std::int64_t nnz = inst->sparse.nnz();
    const RunOut want = run_with(dist, inst->bound, ranks, nnz, false);
    for (const bool concurrent : {false, true}) {
      SCOPED_TRACE(concurrent ? "concurrent" : "sequential");
      expect_bit_identical(
          want, run_with(dist, inst->bound, ranks, nnz, concurrent));
    }
  }
}

// Hybrid rank x thread execution: each rank's local nest partitions the
// same way whether the ranks run one after another or as pool tasks (where
// the inner parallel_apply runs inline), for both output kinds.
TEST(RankScheduling, HybridLocalThreadsBitIdentical) {
  testing::ScopedLanes lanes(4);
  for (int kernel_idx : {0, 4}) {  // mttkrp3 (dense out), tttp3 (sparse out)
    SCOPED_TRACE(paper_kernels()[static_cast<std::size_t>(kernel_idx)].name);
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        7200 + kernel_idx);
    const int ranks = 3;
    DistSpttn dist(inst->bound, ranks);
    const std::int64_t nnz = inst->sparse.nnz();
    const RunOut want = run_with(dist, inst->bound, ranks, nnz, false,
                                 /*local_threads=*/2);
    const RunOut got = run_with(dist, inst->bound, ranks, nnz, true,
                                /*local_threads=*/2);
    expect_bit_identical(want, got);
  }
}

// More ranks than nonzeros: most ranks own nothing. Idle ranks must be
// skipped (no partials) and the few live partials still merged correctly,
// sequentially and concurrently.
TEST(RankScheduling, RanksGreaterThanNnzEdgeCase) {
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
    const bool sparse_out = bound->kernel.output_is_sparse();
    SCOPED_TRACE(sparse_out ? "sparse-out" : "dense-out");
    const int ranks = 7;  // > nnz == 3, so at least four ranks are empty
    DistSpttn dist(*bound, ranks);
    std::int64_t live = 0;
    for (const std::int64_t n : dist.local_nnz()) live += n > 0 ? 1 : 0;
    ASSERT_LT(live, ranks);
    const RunOut want = run_with(dist, *bound, ranks, 3, false);
    DenseTensor ref_dense = sparse_out ? DenseTensor() : make_output(*bound);
    std::vector<double> ref_sparse(sparse_out ? 3 : 0);
    reference_execute(bound->kernel, t, bound->dense,
                      sparse_out ? nullptr : &ref_dense, ref_sparse);
    if (sparse_out) {
      for (std::size_t e = 0; e < ref_sparse.size(); ++e) {
        EXPECT_NEAR(want.sparse[e], ref_sparse[e], 1e-12);
      }
    } else {
      EXPECT_LT(want.dense.max_abs_diff(ref_dense), 1e-12);
    }
    for (const bool concurrent : {false, true}) {
      SCOPED_TRACE(concurrent ? "concurrent" : "sequential");
      expect_bit_identical(want, run_with(dist, *bound, ranks, 3, concurrent));
    }
  }
}

// Every event's model_seconds is exactly the alpha-beta price of its
// payload under the comm's CommParams, and the events are expected_events'
// list. The run's model sum is the same doubles summed in the same order,
// and it repeats exactly across runs and rank schedules (it depends on
// bytes and ranks only).
TEST(ShmemComm, ModelSecondsMatchCommModelExactly) {
  testing::ScopedLanes lanes(4);
  CommParams fitted;
  fitted.alpha_seconds = 3e-6;
  fitted.beta_seconds_per_byte = 7e-10;
  for (const CommParams& params : {CommParams{}, fitted}) {
    for (std::size_t i = 0; i < paper_kernels().size(); ++i) {
      SCOPED_TRACE(paper_kernels()[i].name);
      const auto inst = testing::make_instance(paper_kernels()[i],
                                               7300 + static_cast<int>(i));
      const int ranks = 4;
      DistSpttn dist(inst->bound, ranks);
      ShmemComm comm(ranks, params);
      const std::int64_t nnz = inst->sparse.nnz();
      const RunOut got = run_with(dist, inst->bound, comm, nnz, false);

      const std::vector<CommEvent> want =
          expected_events(inst->bound, dist, ranks, params);
      ASSERT_EQ(got.res.events.size(), want.size());
      double want_seconds = 0;
      std::int64_t want_bytes = 0;
      for (std::size_t e = 0; e < want.size(); ++e) {
        const CommEvent& ev = got.res.events[e];
        EXPECT_EQ(ev.kind, want[e].kind) << "event " << e;
        EXPECT_EQ(ev.bytes, want[e].bytes) << "event " << e;
        EXPECT_EQ(ev.model_seconds, want[e].model_seconds) << "event " << e;
        EXPECT_GT(ev.model_seconds, 0.0) << "event " << e;
        want_seconds += want[e].model_seconds;
        want_bytes += want[e].bytes;
      }
      EXPECT_EQ(got.res.comm_model_seconds, want_seconds);
      EXPECT_EQ(got.res.comm_bytes, want_bytes);
      EXPECT_EQ(got.res.model_time(),
                got.res.max_local_seconds + want_seconds);

      const RunOut again = run_with(dist, inst->bound, comm, nnz, false);
      const RunOut concurrent = run_with(dist, inst->bound, comm, nnz, true);
      EXPECT_EQ(again.res.comm_model_seconds, got.res.comm_model_seconds);
      EXPECT_EQ(concurrent.res.comm_model_seconds,
                got.res.comm_model_seconds);
    }
  }
}

// The event log carries the per-collective breakdown (expected_events: the
// gathered factors, and for mttkrp3's root-strided output the cut-row
// all-reduce and the owned-row allgather; TTTP gathers V and W only and
// reduces nothing), and the kind-wise totals partition the summed fields
// exactly.
TEST(CommEvents, BreakdownPartitionsTotals) {
  for (int kernel_idx : {0, 4}) {  // dense out, sparse out
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        7400 + kernel_idx);
    const int ranks = 4;
    DistSpttn dist(inst->bound, ranks);
    const RunOut got =
        run_with(dist, inst->bound, ranks, inst->sparse.nnz(), false);
    int want_ag = 0;
    int want_ar = 0;
    for (const CommEvent& ev : expected_events(inst->bound, dist, ranks, {})) {
      (ev.kind == CollectiveKind::kAllgather ? want_ag : want_ar) += 1;
    }
    const CommBreakdown ag = got.res.breakdown(CollectiveKind::kAllgather);
    const CommBreakdown ar = got.res.breakdown(CollectiveKind::kAllreduce);
    EXPECT_EQ(ag.count, want_ag);
    EXPECT_EQ(ar.count, want_ar);
    EXPECT_EQ(ag.count, kernel_idx == 0 ? 3 : 2);
    EXPECT_EQ(static_cast<int>(got.res.events.size()), ag.count + ar.count);
    EXPECT_EQ(ag.bytes + ar.bytes, got.res.comm_bytes);
    EXPECT_DOUBLE_EQ(ag.seconds + ar.seconds, got.res.comm_seconds);
    EXPECT_DOUBLE_EQ(ag.model_seconds + ar.model_seconds,
                     got.res.comm_model_seconds);
    EXPECT_GT(ag.bytes, 0);
    EXPECT_GT(ag.model_seconds, 0.0);
    for (const CommEvent& ev : got.res.events) {
      EXPECT_GE(ev.seconds, 0.0);
      EXPECT_GT(ev.model_seconds, 0.0);
    }
  }
}

TEST(CommEvents, SingleRankIssuesNoCollectives) {
  const auto inst = testing::make_instance(paper_kernels()[0], 7500);
  DistSpttn dist(inst->bound, 1);
  const RunOut got =
      run_with(dist, inst->bound, 1, inst->sparse.nnz(), false);
  EXPECT_TRUE(got.res.events.empty());
  EXPECT_EQ(got.res.comm_seconds, 0.0);
  EXPECT_EQ(got.res.comm_model_seconds, 0.0);
  EXPECT_EQ(got.res.comm_bytes, 0);
}

// A comm instance is reusable across runs: begin_run resets the event log
// and gathered replicas, so a rank-count-matched comm can serve an
// iterative driver without accumulating stale events.
TEST(CommEvents, CommReuseResetsEventLog) {
  const auto inst = testing::make_instance(paper_kernels()[0], 7600);
  const int ranks = 4;
  DistSpttn dist(inst->bound, ranks);
  ShmemComm comm(ranks);
  DenseTensor out1 = make_output(inst->bound);
  DenseTensor out2 = make_output(inst->bound);
  const DistResult r1 = dist.run(comm, {}, &out1, {});
  const DistResult r2 = dist.run(comm, {}, &out2, {});
  EXPECT_EQ(r1.events.size(), r2.events.size());
  EXPECT_EQ(comm.events().size(), r2.events.size());
  EXPECT_EQ(out1.max_abs_diff(out2), 0.0);
}

TEST(DistSpttn, RejectsRankMismatchAndUnboundOutputs) {
  const auto inst = testing::make_instance(paper_kernels()[0], 7700);
  DistSpttn dist(inst->bound, 3);
  ShmemComm comm(4);
  DenseTensor out = make_output(inst->bound);
  EXPECT_THROW(dist.run(comm, {}, &out, {}), Error);
  // An output the kernel does not produce would come back untouched.
  ShmemComm comm3(3);
  std::vector<double> stray(static_cast<std::size_t>(inst->sparse.nnz()));
  EXPECT_THROW(dist.run(comm3, {}, &out, stray), Error);
  const auto tttp = testing::make_instance(paper_kernels()[4], 7701);
  ASSERT_TRUE(tttp->bound.kernel.output_is_sparse());
  const DistSpttn sparse_dist(tttp->bound, 3);
  DenseTensor dense_for_sparse({2, 2});
  EXPECT_THROW(sparse_dist.run(comm3, {}, &dense_for_sparse, {}), Error);
}

TEST(CommParamsValidation, RejectsNegativeAndNaNConstants) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto reject = [&](double alpha, double beta) {
    CommParams p;
    p.alpha_seconds = alpha;
    p.beta_seconds_per_byte = beta;
    EXPECT_THROW(ShmemComm(2, p), Error);
  };
  reject(-1e-6, 1e-10);
  reject(1e-6, -1e-10);
  reject(nan, 1e-10);
  reject(1e-6, nan);
  reject(inf, 1e-10);
  reject(1e-6, inf);
  EXPECT_THROW(ShmemComm(0), Error);
  // Zero is a legitimate constant (pure-bandwidth or pure-latency models).
  CommParams zero;
  zero.alpha_seconds = 0.0;
  zero.beta_seconds_per_byte = 0.0;
  EXPECT_NO_THROW(ShmemComm(2, zero));
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
  EXPECT_GT(ev.seconds, 0.0);
  EXPECT_EQ(ev.model_seconds, allgather_seconds(ev.bytes, ranks, {}));
  for (int r = 0; r < ranks; ++r) {
    const DenseTensor& rep = comm.gathered(r, slot);
    ASSERT_NE(&rep, &factor);  // a real replica, not the source
    EXPECT_EQ(rep.max_abs_diff(factor), 0.0);
  }
}

}  // namespace
}  // namespace spttn
