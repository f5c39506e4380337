#include <gtest/gtest.h>

#include <algorithm>

#include "dist/comm_model.hpp"
#include "dist/dist_spttn.hpp"
#include "dist/grid.hpp"
#include "exec/reference.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

TEST(ProcGrid, FactorizesBalanced) {
  const std::vector<std::int64_t> modes{1000, 1000, 1000};
  const ProcGrid g = ProcGrid::make(8, modes);
  EXPECT_EQ(g.size(), 8);
  EXPECT_EQ(g.order(), 3);
  int prod = 1;
  for (int d : g.dims()) prod *= d;
  EXPECT_EQ(prod, 8);
  // Balanced: no grid dim exceeds 4 for p=8 over 3 modes.
  for (int d : g.dims()) EXPECT_LE(d, 4);
}

TEST(ProcGrid, SkewedModesGetMoreProcs) {
  const std::vector<std::int64_t> modes{100000, 10, 10};
  const ProcGrid g = ProcGrid::make(16, modes);
  EXPECT_EQ(g.dims()[0], 16);  // all processes along the large mode
}

TEST(ProcGrid, OwnerIsCyclicAndComplete) {
  const std::vector<std::int64_t> modes{50, 40};
  const ProcGrid g = ProcGrid::make(6, modes);
  std::vector<int> counts(static_cast<std::size_t>(g.size()), 0);
  for (std::int64_t i = 0; i < 20; ++i) {
    for (std::int64_t j = 0; j < 20; ++j) {
      const std::vector<std::int64_t> c{i, j};
      const int r = g.owner_of(c);
      ASSERT_GE(r, 0);
      ASSERT_LT(r, g.size());
      ++counts[static_cast<std::size_t>(r)];
    }
  }
  // Cyclic layout is perfectly balanced on aligned blocks.
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(ProcGrid, RankCoordRoundTrips) {
  const std::vector<std::int64_t> modes{64, 64, 64};
  const ProcGrid g = ProcGrid::make(12, modes);
  for (int r = 0; r < g.size(); ++r) {
    const auto coord = g.rank_coord(r);
    // Rebuild the rank by the same mixed-radix rule owner_of uses.
    int rank = 0;
    for (std::size_t m = 0; m < coord.size(); ++m) {
      rank = rank * g.dims()[m] + coord[m];
    }
    EXPECT_EQ(rank, r);
  }
}

TEST(ProcGrid, SingleProcessGridIsAllOnes) {
  const std::vector<std::int64_t> modes{32, 16, 8};
  const ProcGrid g = ProcGrid::make(1, modes);
  EXPECT_EQ(g.size(), 1);
  EXPECT_EQ(g.describe(), "1x1x1");
  for (int d : g.dims()) EXPECT_EQ(d, 1);
  EXPECT_EQ(g.owner_of({5, 3, 1}), 0);
  EXPECT_EQ(g.rank_coord(0), (std::vector<int>{0, 0, 0}));
}

TEST(ProcGrid, PrimeLargerThanAnyModeStaysWhole) {
  // p = 13 has no nontrivial factorization, so it lands whole on one mode
  // even though every extent is smaller; ownership must stay in range (the
  // surplus ranks simply own no coordinates).
  const std::vector<std::int64_t> modes{4, 5};
  const ProcGrid g = ProcGrid::make(13, modes);
  int prod = 1;
  int max_dim = 0;
  for (int d : g.dims()) {
    prod *= d;
    max_dim = std::max(max_dim, d);
  }
  EXPECT_EQ(prod, 13);
  EXPECT_EQ(max_dim, 13);
  for (std::int64_t i = 0; i < modes[0]; ++i) {
    for (std::int64_t j = 0; j < modes[1]; ++j) {
      const int r = g.owner_of({i, j});
      EXPECT_GE(r, 0);
      EXPECT_LT(r, g.size());
    }
  }
}

TEST(ProcGrid, SingleModeTensor) {
  const std::vector<std::int64_t> modes{100};
  const ProcGrid g = ProcGrid::make(6, modes);
  EXPECT_EQ(g.order(), 1);
  ASSERT_EQ(g.dims().size(), 1u);
  EXPECT_EQ(g.dims()[0], 6);
  for (std::int64_t i = 0; i < modes[0]; ++i) {
    EXPECT_EQ(g.owner_of({i}), static_cast<int>(i % 6));
  }
  for (int r = 0; r < g.size(); ++r) {
    EXPECT_EQ(g.rank_coord(r), (std::vector<int>{r}));
  }
}

TEST(CommModel, CollectivesScaleSensibly) {
  const CommParams p;
  // Zero cost on one process or zero bytes.
  EXPECT_DOUBLE_EQ(allreduce_seconds(1 << 20, 1, p), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_seconds(0, 8, p), 0.0);
  // Monotone in bytes.
  EXPECT_LT(allreduce_seconds(1 << 10, 8, p), allreduce_seconds(1 << 20, 8, p));
  // Bandwidth term dominates for large messages: doubling bytes roughly
  // doubles time.
  const double t1 = allreduce_seconds(64 << 20, 8, p);
  const double t2 = allreduce_seconds(128 << 20, 8, p);
  EXPECT_NEAR(t2 / t1, 2.0, 0.1);
  // Allgather moves ~half the all-reduce volume.
  EXPECT_LT(allgather_seconds(1 << 20, 8, p), allreduce_seconds(1 << 20, 8, p));
}

struct DistEquivalence : ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistEquivalence, MatchesSequentialResult) {
  const auto [kernel_idx, ranks] = GetParam();
  const auto inst = testing::make_instance(
      paper_kernels()[static_cast<std::size_t>(kernel_idx)],
      2222 + kernel_idx);
  const Kernel& k = inst->bound.kernel;
  DistSpttn dist(inst->bound, ranks);
  ModeledComm comm(ranks);
  const PlannerOptions opts;
  if (k.output_is_sparse()) {
    std::vector<double> got(static_cast<std::size_t>(inst->sparse.nnz()));
    std::vector<double> want(got.size());
    const DistResult r = dist.run(comm, opts, nullptr, got);
    reference_execute(k, inst->sparse, inst->dense_slots(), nullptr, want);
    for (std::size_t e = 0; e < got.size(); ++e) {
      ASSERT_NEAR(got[e], want[e], 1e-9);
    }
    EXPECT_EQ(r.ranks, ranks);
  } else {
    DenseTensor got = make_output(inst->bound);
    DenseTensor want = make_output(inst->bound);
    const DistResult r = dist.run(comm, opts, &got, {});
    reference_execute(k, inst->sparse, inst->dense_slots(), &want, {});
    ASSERT_LT(want.max_abs_diff(got), 1e-9);
    EXPECT_EQ(r.ranks, ranks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsByRanks, DistEquivalence,
    ::testing::Combine(::testing::Values(0, 2, 4, 5), ::testing::Values(1, 2,
                                                                        4, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return paper_kernels()[static_cast<std::size_t>(
                                 std::get<0>(info.param))]
                 .name +
             "_p" + std::to_string(std::get<1>(info.param));
    });

// Hybrid rank x thread execution: each simulated rank's local nest runs on
// the shared-memory pool; results must match the pure-rank run for both
// output kinds (dense goes through per-rank accumulate, sparse through the
// owner-local value merge).
TEST(DistSpttn, HybridLocalThreadsMatchesSingleThreaded) {
  for (int kernel_idx : {0, 4}) {  // mttkrp3 (dense out), tttp3 (sparse out)
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        3333 + kernel_idx);
    const Kernel& k = inst->bound.kernel;
    DistSpttn dist(inst->bound, 3);
    ModeledComm comm(3);
    const PlannerOptions opts;
    if (k.output_is_sparse()) {
      std::vector<double> got(static_cast<std::size_t>(inst->sparse.nnz()));
      std::vector<double> want(got.size());
      dist.run(comm, opts, nullptr, want, /*local_threads=*/1);
      dist.run(comm, opts, nullptr, got, /*local_threads=*/4);
      for (std::size_t e = 0; e < got.size(); ++e) {
        ASSERT_NEAR(got[e], want[e], 1e-12);
      }
    } else {
      DenseTensor got = make_output(inst->bound);
      DenseTensor want = make_output(inst->bound);
      dist.run(comm, opts, &want, {}, /*local_threads=*/1);
      dist.run(comm, opts, &got, {}, /*local_threads=*/4);
      ASSERT_LT(want.max_abs_diff(got), 1e-12);
    }
  }
}

// Concurrent simulated ranks must be bit-identical to the sequential rank
// loop for the Figure 8 kernel families: every rank computes into a
// private partial either way and the closing reduction folds partials in
// ascending rank order, so scheduling cannot change a single bit.
TEST(DistSpttn, ConcurrentRanksBitIdenticalToSequential) {
  testing::ScopedLanes lanes(4);  // real lanes even on 1-core CI boxes
  for (int kernel_idx : {0, 2, 4}) {  // mttkrp3, ttmc3, tttp3 (Fig. 8)
    SCOPED_TRACE(paper_kernels()[static_cast<std::size_t>(kernel_idx)].name);
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        4444 + kernel_idx);
    const Kernel& k = inst->bound.kernel;
    for (int ranks : {2, 5}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks));
      DistSpttn dist(inst->bound, ranks);
      ModeledComm comm(ranks);
      const PlannerOptions opts;
      if (k.output_is_sparse()) {
        std::vector<double> want(static_cast<std::size_t>(inst->sparse.nnz()));
        std::vector<double> got(want.size());
        dist.run(comm, opts, nullptr, want, /*local_threads=*/1,
                 /*concurrent_ranks=*/false);
        dist.run(comm, opts, nullptr, got, /*local_threads=*/1,
                 /*concurrent_ranks=*/true);
        for (std::size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(want[e], got[e]);
        }
      } else {
        DenseTensor want = make_output(inst->bound);
        DenseTensor got = make_output(inst->bound);
        dist.run(comm, opts, &want, {}, /*local_threads=*/1,
                 /*concurrent_ranks=*/false);
        dist.run(comm, opts, &got, {}, /*local_threads=*/1,
                 /*concurrent_ranks=*/true);
        ASSERT_EQ(want.max_abs_diff(got), 0.0);
      }
    }
  }
}

// Hybrid: concurrent ranks whose local nests themselves request pool lanes
// (the inner parallel_apply runs inline inside a rank task) must still be
// bit-identical to the sequential hybrid run.
TEST(DistSpttn, ConcurrentRanksWithLocalThreadsMatch) {
  testing::ScopedLanes lanes(4);
  const auto inst = testing::make_instance(paper_kernels()[0], 4545);
  DistSpttn dist(inst->bound, 3);
  ModeledComm comm(3);
  const PlannerOptions opts;
  DenseTensor want = make_output(inst->bound);
  DenseTensor got = make_output(inst->bound);
  dist.run(comm, opts, &want, {}, /*local_threads=*/4,
           /*concurrent_ranks=*/false);
  dist.run(comm, opts, &got, {}, /*local_threads=*/4,
           /*concurrent_ranks=*/true);
  EXPECT_EQ(want.max_abs_diff(got), 0.0);
}

TEST(DistSpttn, PartitionCoversAllNonzeros) {
  const auto inst = testing::make_instance(paper_kernels()[0], 909);
  DistSpttn dist(inst->bound, 5);
  std::int64_t total = 0;
  for (auto n : dist.local_nnz()) total += n;
  EXPECT_EQ(total, inst->sparse.nnz());
}

TEST(DistSpttn, CommChargedForFactorsAndOutput) {
  const auto inst = testing::make_instance(paper_kernels()[0], 910);
  DistSpttn dist(inst->bound, 4);
  ModeledComm comm(4);
  DenseTensor out = make_output(inst->bound);
  const DistResult r = dist.run(comm, {}, &out, {});
  EXPECT_GT(r.comm_seconds, 0.0);
  EXPECT_GT(r.comm_bytes, 0);
  EXPECT_GE(r.imbalance, 1.0);
}

TEST(DistSpttn, SparseOutputNeedsNoReduction) {
  const auto inst = testing::make_instance(paper_kernels()[4], 911);  // tttp
  DistSpttn dist4(inst->bound, 4);
  ModeledComm comm(4);
  std::vector<double> out(static_cast<std::size_t>(inst->sparse.nnz()));
  const DistResult r = dist4.run(comm, {}, nullptr, out);
  // Factors still move, but no output all-reduce: comm volume is below an
  // equivalent dense-output kernel's.
  const auto inst2 = testing::make_instance(paper_kernels()[0], 911);
  DistSpttn distm(inst2->bound, 4);
  DenseTensor dense_out = make_output(inst2->bound);
  const DistResult rm = distm.run(comm, {}, &dense_out, {});
  EXPECT_GT(rm.comm_bytes, 0);
  EXPECT_GE(rm.comm_seconds, 0.0);
  EXPECT_GT(r.comm_bytes, 0);
}

TEST(DistSpttn, SingleRankHasNoComm) {
  const auto inst = testing::make_instance(paper_kernels()[0], 912);
  DistSpttn dist(inst->bound, 1);
  ModeledComm comm(1);
  DenseTensor out = make_output(inst->bound);
  const DistResult r = dist.run(comm, {}, &out, {});
  EXPECT_DOUBLE_EQ(r.comm_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.imbalance, 1.0);
}

}  // namespace
}  // namespace spttn
