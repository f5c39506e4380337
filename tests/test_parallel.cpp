// Shared-memory parallel execution: threaded runs must reproduce the
// sequential result exactly for every kernel family (dense and sparse
// outputs, sparse and dense root loops).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "analysis/plan_verifier.hpp"
#include "exec/executor.hpp"
#include "exec/schedules.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

using testing::ScopedLanes;

/// A third-order tensor whose root slice i=0 owns ~94% of the nonzeros
/// (dims 40x60x30); the remaining slices carry one nonzero each.
CooTensor single_heavy_slice_tensor(std::int64_t heavy_rows) {
  CooTensor t({40, 60, 30});
  Rng rng(11);
  for (std::int64_t j = 0; j < 60; ++j) {
    for (std::int64_t k = 0; k < 30; ++k) {
      if ((j * 31 + k) % 2 == 0) {
        t.push_back({0, j, k}, rng.next_double() + 0.5);
      }
    }
  }
  for (std::int64_t i = 1; i < heavy_rows; ++i) {
    t.push_back({i, i % 60, i % 30}, 1.0 + static_cast<double>(i));
  }
  t.sort_dedup();
  return t;
}

struct ParallelVsSequential
    : ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelVsSequential, SameResult) {
  const auto [kernel_idx, threads] = GetParam();
  const auto inst = testing::make_instance(
      paper_kernels()[static_cast<std::size_t>(kernel_idx)],
      6000 + kernel_idx);
  const Kernel& kernel = inst->bound.kernel;
  const Plan plan = plan_kernel(inst->bound);
  FusedExecutor exec(kernel, plan);

  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;

  DenseTensor seq_out;
  DenseTensor par_out;
  std::vector<double> seq_vals;
  std::vector<double> par_vals;
  if (kernel.output_is_sparse()) {
    seq_vals.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
    par_vals = seq_vals;
    args.out_sparse = seq_vals;
    exec.execute(args);
    args.out_sparse = par_vals;
    args.num_threads = threads;
    exec.execute(args);
    for (std::size_t e = 0; e < seq_vals.size(); ++e) {
      ASSERT_NEAR(seq_vals[e], par_vals[e], 1e-12);
    }
  } else {
    seq_out = make_output(inst->bound);
    par_out = make_output(inst->bound);
    args.out_dense = &seq_out;
    exec.execute(args);
    args.out_dense = &par_out;
    args.num_threads = threads;
    exec.execute(args);
    ASSERT_LT(seq_out.max_abs_diff(par_out), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsByThreads, ParallelVsSequential,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Values(2, 3, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return paper_kernels()[static_cast<std::size_t>(
                                 std::get<0>(info.param))]
                 .name +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(Parallel, MoreThreadsThanRootsIsSafe) {
  CooTensor t({3, 4, 4});
  t.push_back({0, 1, 2}, 1.0);
  t.push_back({2, 0, 1}, 2.0);
  t.sort_dedup();
  Rng rng(1);
  const DenseTensor b = random_dense({4, 2}, rng);
  const DenseTensor c = random_dense({4, 2}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const Plan plan = plan_kernel(bound);
  FusedExecutor exec(bound.kernel, plan);
  DenseTensor out = make_output(bound);
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;
  args.out_dense = &out;
  args.num_threads = 16;  // only 2 root nodes exist
  ExecStats stats;
  args.stats = &stats;
  exec.execute(args);
  EXPECT_GT(out.norm(), 0.0);
  EXPECT_LE(stats.threads_used, 2);  // cannot split below root subtrees
  EXPECT_EQ(stats.fallback_regions, 0);
}

// Oversubscription sweep: thread counts far beyond the root extent (and
// beyond the machine) must stay correct for every kernel family.
TEST(Parallel, OversubscriptionSweep) {
  for (int kernel_idx : {0, 2, 4}) {  // mttkrp3, ttmc3, tttp3
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        6200 + kernel_idx);
    const Kernel& kernel = inst->bound.kernel;
    const Plan plan = plan_kernel(inst->bound);
    FusedExecutor exec(kernel, plan);
    ExecArgs args;
    args.sparse = &inst->bound.csf;
    args.dense = inst->bound.dense;

    std::vector<double> seq_vals;
    DenseTensor seq_out;
    if (kernel.output_is_sparse()) {
      seq_vals.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
      args.out_sparse = seq_vals;
    } else {
      seq_out = make_output(inst->bound);
      args.out_dense = &seq_out;
    }
    exec.execute(args);

    for (int threads : {7, 64, 1000}) {
      SCOPED_TRACE(paper_kernels()[static_cast<std::size_t>(kernel_idx)]
                       .name +
                   " threads=" + std::to_string(threads));
      args.num_threads = threads;
      ExecStats stats;
      args.stats = &stats;
      if (kernel.output_is_sparse()) {
        std::vector<double> par_vals(seq_vals.size(), 0.0);
        args.out_sparse = par_vals;
        exec.execute(args);
        for (std::size_t e = 0; e < seq_vals.size(); ++e) {
          ASSERT_NEAR(seq_vals[e], par_vals[e], 1e-12);
        }
        args.out_sparse = seq_vals;
      } else {
        DenseTensor par_out = make_output(inst->bound);
        args.out_dense = &par_out;
        exec.execute(args);
        ASSERT_LT(seq_out.max_abs_diff(par_out), 1e-12);
        args.out_dense = &seq_out;
      }
      EXPECT_GE(stats.parallel_regions, 1);
      EXPECT_LE(stats.threads_used, threads);
    }
  }
}

// nnz = 0 and nnz = 1: partitioning degenerates gracefully (no chunks /
// one chunk) at any thread count.
TEST(Parallel, TinyAndEmptyTensors) {
  for (std::int64_t nnz : {std::int64_t{0}, std::int64_t{1}}) {
    CooTensor t({5, 4, 3});
    if (nnz == 1) t.push_back({2, 1, 0}, 1.5);
    t.sort_dedup();
    Rng rng(2);
    const DenseTensor b = random_dense({4, 3}, rng);
    const DenseTensor c = random_dense({3, 3}, rng);
    const BoundKernel bound =
        bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
    const Plan plan = plan_kernel(bound);
    FusedExecutor exec(bound.kernel, plan);
    DenseTensor seq = make_output(bound);
    ExecArgs args;
    args.sparse = &bound.csf;
    args.dense = bound.dense;
    args.out_dense = &seq;
    exec.execute(args);
    for (int threads : {2, 8, 32}) {
      SCOPED_TRACE("nnz=" + std::to_string(nnz) +
                   " threads=" + std::to_string(threads));
      DenseTensor par = make_output(bound);
      args.out_dense = &par;
      args.num_threads = threads;
      ExecStats stats;
      args.stats = &stats;
      exec.execute(args);
      EXPECT_LT(seq.max_abs_diff(par), 1e-15);
      EXPECT_EQ(stats.fallback_regions, 0);
      EXPECT_LE(stats.threads_used, 1);  // nothing to split
    }
    args.out_dense = &seq;
    args.num_threads = 1;
    args.stats = nullptr;
  }
}

// accumulate = true across thread counts: out += result must land on the
// sequential accumulation to 1e-12, and repeating the same thread count
// must be bit-identical (deterministic partitioning and tree reduction).
TEST(Parallel, AccumulateAcrossThreadCounts) {
  const auto inst = testing::make_instance(paper_kernels()[0], 6300);
  const Kernel& kernel = inst->bound.kernel;
  const Plan plan = plan_kernel(inst->bound);
  FusedExecutor exec(kernel, plan);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  args.accumulate = true;

  const auto run_accumulating = [&](int threads) {
    DenseTensor out = make_output(inst->bound);
    out.zero();
    args.out_dense = &out;
    args.num_threads = threads;
    exec.execute(args);
    exec.execute(args);  // accumulate twice: out = 2 * kernel(T, ...)
    return out;
  };

  const DenseTensor seq = run_accumulating(1);
  for (int threads : {2, 3, 8, 19}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DenseTensor par = run_accumulating(threads);
    EXPECT_LT(seq.max_abs_diff(par), 1e-12);
    const DenseTensor again = run_accumulating(threads);
    EXPECT_EQ(par.max_abs_diff(again), 0.0);  // bit-identical rerun
  }
}

// The unfused pairwise schedule compiles to a multi-root loop forest. The
// runtime must either partition those roots or say so in ExecStats — no
// silent sequential fallback — and the result must match 1-thread output.
TEST(Parallel, MultiRootForestParallelizesOrReports) {
  const auto inst = testing::make_instance(paper_kernels()[2], 6100);
  const Kernel& kernel = inst->bound.kernel;
  const auto [path, order] = unfused_pairwise_schedule(kernel);
  FusedExecutor exec(kernel, path, order);
  DenseTensor a = make_output(inst->bound);
  DenseTensor b = make_output(inst->bound);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  args.out_dense = &a;
  exec.execute(args);
  args.out_dense = &b;
  args.num_threads = 4;
  ExecStats stats;
  args.stats = &stats;
  exec.execute(args);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
  EXPECT_EQ(stats.threads_requested, 4);
  // Observability contract: every root either parallelized or recorded.
  EXPECT_GT(stats.parallel_regions + stats.fallback_regions, 0);
  if (stats.fallback_regions == 0) {
    EXPECT_GT(stats.threads_used, 1) << "forest claims parallel but used "
                                        "one partition everywhere";
  }
}

// Acceptance scenario for the nested runtime: one root slice holding >=90%
// of the nonzeros must not serialize. The nested second-level split has to
// engage (threads_used > 1), the imbalance of the executed partition must
// be reported, results must match sequential to 1e-12, and reruns at the
// same thread count must be bit-identical (deterministic partition shape
// plus deterministic tiled reduction).
TEST(Parallel, SkewedRootSplitsAcrossSecondLevel) {
  ScopedLanes lanes(4);
  const CooTensor t = single_heavy_slice_tensor(40);
  Rng rng(21);
  const DenseTensor b = random_dense({60, 8}, rng);
  const DenseTensor c = random_dense({30, 8}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const Plan plan = plan_kernel(bound);
  FusedExecutor exec(bound.kernel, plan);
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;

  DenseTensor seq = make_output(bound);
  args.out_dense = &seq;
  exec.execute(args);

  DenseTensor par = make_output(bound);
  args.out_dense = &par;
  args.num_threads = 8;
  ExecStats stats;
  args.stats = &stats;
  exec.execute(args);

  EXPECT_TRUE(stats.populated);
  EXPECT_GT(stats.threads_used, 1) << "skewed root serialized";
  EXPECT_GE(stats.nested_regions, 1) << "nested split did not engage";
  EXPECT_EQ(stats.fallback_regions, 0);
  EXPECT_GE(stats.partition_imbalance, 1.0);
  EXPECT_LT(seq.max_abs_diff(par), 1e-12);

  DenseTensor again = make_output(bound);
  args.out_dense = &again;
  exec.execute(args);
  EXPECT_EQ(par.max_abs_diff(again), 0.0) << "rerun not bit-identical";
}

// Regression for the mega-chunk bug: when ALL nonzeros live under a single
// root node the old partitioner returned one chunk, reported imbalance 1.0
// and silently serialized. Now the nested split carries the region, and
// when it cannot, the true imbalance of the attempted partition must be
// visible. Here the root has exactly one occupied node.
TEST(Parallel, SingleHeavySliceDoesNotHideSerialization) {
  ScopedLanes lanes(4);
  const CooTensor t = single_heavy_slice_tensor(1);  // only the i=0 slice
  Rng rng(22);
  const DenseTensor b = random_dense({60, 6}, rng);
  const DenseTensor c = random_dense({30, 6}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const Plan plan = plan_kernel(bound);
  FusedExecutor exec(bound.kernel, plan);
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;

  DenseTensor seq = make_output(bound);
  args.out_dense = &seq;
  exec.execute(args);

  DenseTensor par = make_output(bound);
  args.out_dense = &par;
  args.num_threads = 8;
  ExecStats stats;
  args.stats = &stats;
  exec.execute(args);

  EXPECT_LT(seq.max_abs_diff(par), 1e-12);
  // Either the nested split engaged (threads_used > 1) or the serialized
  // region reported its skew; with a single-loop body kernel the former
  // must hold.
  EXPECT_GT(stats.threads_used, 1)
      << "single-node root serialized despite nested split, imbalance="
      << stats.partition_imbalance;
  EXPECT_GE(stats.nested_regions, 1);
}

// A root slice owning ~50% of the nonzeros lands in one prefix chunk far
// above the per-task target of the 4x-lane direct-write budget. The
// splitter must re-walk that chunk and split the slice at the second
// level rather than serialize behind the mega-chunk.
TEST(Parallel, ModerateSkewAdoptsSmallerBalancedRebuild) {
  ScopedLanes lanes(4);
  CooTensor t({64, 48, 24});
  Rng rng(31);
  // Slice i=0 carries ~50% of the nonzeros; the rest spread evenly.
  for (std::int64_t j = 0; j < 48; ++j) {
    for (std::int64_t k = 0; k < 24; ++k) {
      if ((j * 7 + k) % 3 == 0) t.push_back({0, j, k}, rng.next_double());
    }
  }
  for (std::int64_t i = 1; i < 64; ++i) {
    for (std::int64_t e = 0; e < 6; ++e) {
      t.push_back({i, (i * 5 + e * 11) % 48, (i * 3 + e) % 24},
                  rng.next_double());
    }
  }
  t.sort_dedup();
  const DenseTensor b = random_dense({48, 8}, rng);
  const DenseTensor c = random_dense({24, 8}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const Plan plan = plan_kernel(bound);
  FusedExecutor exec(bound.kernel, plan);
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;

  DenseTensor seq = make_output(bound);
  args.out_dense = &seq;
  exec.execute(args);

  DenseTensor par = make_output(bound);
  args.out_dense = &par;
  args.num_threads = 16;
  ExecStats stats;
  args.stats = &stats;
  exec.execute(args);

  EXPECT_GE(stats.nested_regions, 1)
      << "balanced rebuild rejected, imbalance=" << stats.partition_imbalance;
  EXPECT_GT(stats.threads_used, 1);
  // The executed partition must not retain the ~50% mega-chunk (which
  // would read as imbalance ~= tasks/2).
  EXPECT_LT(stats.partition_imbalance, 2.0);
  EXPECT_LT(seq.max_abs_diff(par), 1e-12);
}

// A root slice owning ~22% of the nonzeros is heavy against the 4x-lane
// budget's per-task target (total/16) yet lighter than one lane's share
// (total/4). The splitter must carve it against the per-task target, not
// a per-lane one: the nested split engages, the executed imbalance drops
// well below the unsplit ~2.6, and results still land on sequential
// bit-for-bit at a fixed thread count.
TEST(Parallel, ModerateSkewResplitsHeavyChunkWhenRebuildDegenerates) {
  ScopedLanes lanes(4);
  CooTensor t({65, 48, 24});
  Rng rng(41);
  // Slice i=0: 288 nonzeros (~22% of 1312 total) — below total/4, above
  // total/16. Slices 1..64: 16 nonzeros each.
  for (std::int64_t j = 0; j < 48; ++j) {
    for (std::int64_t k = 0; k < 24; ++k) {
      if ((j * 24 + k) % 4 == 0) t.push_back({0, j, k}, rng.next_double());
    }
  }
  for (std::int64_t i = 1; i < 65; ++i) {
    for (std::int64_t e = 0; e < 16; ++e) {
      t.push_back({i, (i * 5 + e * 7) % 48, (i + e * 5) % 24},
                  rng.next_double() - 0.5);
    }
  }
  t.sort_dedup();
  const DenseTensor b = random_dense({48, 8}, rng);
  const DenseTensor c = random_dense({24, 8}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const Plan plan = plan_kernel(bound);
  FusedExecutor exec(bound.kernel, plan);
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;

  DenseTensor seq = make_output(bound);
  args.out_dense = &seq;
  exec.execute(args);

  DenseTensor par = make_output(bound);
  args.out_dense = &par;
  args.num_threads = 16;
  ExecStats stats;
  args.stats = &stats;
  exec.execute(args);

  EXPECT_GE(stats.nested_regions, 1)
      << "heavy-chunk re-split did not engage, imbalance="
      << stats.partition_imbalance;
  EXPECT_GT(stats.threads_used, 1);
  EXPECT_EQ(stats.fallback_regions, 0);
  // Unsplit, the partition rides the ~22% mega-chunk: imbalance
  // max_w * tasks / total ~= 2.6. The split caps tasks near the
  // per-task target.
  EXPECT_LT(stats.partition_imbalance, 2.0);
  EXPECT_LT(seq.max_abs_diff(par), 1e-12);

  DenseTensor again = make_output(bound);
  args.out_dense = &again;
  exec.execute(args);
  EXPECT_EQ(par.max_abs_diff(again), 0.0) << "rerun not bit-identical";
}

// Nested determinism across output families on tiny-extent roots (three
// root slices, hundreds of nonzeros each, lane budget above the extent):
// threaded results land on sequential at 1e-12 and reruns are
// bit-identical. TTTP (sparse output over sparse root + sparse inner)
// keeps direct leaf-range writes even when nested, so it must match the
// sequential values exactly.
TEST(Parallel, NestedPartitionDeterminismOnSmallRoots) {
  ScopedLanes lanes(4);
  CooTensor t({3, 40, 25});
  Rng rng(23);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 40; ++j) {
      for (std::int64_t k = 0; k < 25; ++k) {
        if ((i * 7 + j * 3 + k) % 4 == 0) {
          t.push_back({i, j, k}, rng.next_double() - 0.5);
        }
      }
    }
  }
  t.sort_dedup();
  const DenseTensor u = random_dense({40, 5}, rng);
  const DenseTensor v = random_dense({25, 5}, rng);
  const DenseTensor w3 = random_dense({3, 5}, rng);

  struct Case {
    std::string expr;
    std::vector<const DenseTensor*> dense;
    bool sparse_out;
  };
  const std::vector<Case> cases = {
      {"A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", {&u, &v}, false},
      {"S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)", {&u, &v}, false},
      {"S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)", {&w3, &u, &v}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr);
    const BoundKernel bound = spttn::bind(c.expr, t, c.dense);
    const Plan plan = plan_kernel(bound);
    FusedExecutor exec(bound.kernel, plan);
    ExecArgs args;
    args.sparse = &bound.csf;
    args.dense = bound.dense;
    if (c.sparse_out) {
      std::vector<double> seq(static_cast<std::size_t>(t.nnz()), 0.0);
      std::vector<double> par = seq;
      std::vector<double> again = seq;
      args.out_sparse = seq;
      exec.execute(args);
      args.num_threads = 16;
      ExecStats stats;
      args.stats = &stats;
      args.out_sparse = par;
      exec.execute(args);
      args.out_sparse = again;
      exec.execute(args);
      EXPECT_GT(stats.threads_used, 1);
      // Direct leaf-range writes: nested tasks compute each pattern value
      // whole, so the parallel result is the sequential one bit for bit
      // (and reruns trivially so).
      for (std::size_t e = 0; e < seq.size(); ++e) {
        ASSERT_EQ(par[e], again[e]);  // bit-identical rerun
        ASSERT_EQ(seq[e], par[e]);
      }
    } else {
      DenseTensor seq = make_output(bound);
      args.out_dense = &seq;
      exec.execute(args);
      args.num_threads = 16;
      ExecStats stats;
      args.stats = &stats;
      DenseTensor par = make_output(bound);
      args.out_dense = &par;
      exec.execute(args);
      DenseTensor again = make_output(bound);
      args.out_dense = &again;
      exec.execute(args);
      EXPECT_GT(stats.threads_used, 1);
      EXPECT_LT(seq.max_abs_diff(par), 1e-12);
      EXPECT_EQ(par.max_abs_diff(again), 0.0);
    }
    args.num_threads = 1;
    args.stats = nullptr;
  }
}

// An unskewed region keeps the plain prefix cut: at 2 lanes and 2 threads
// the root splits once, on the first root boundary at or past nnz/2, and
// neither chunk is heavy enough (1.25x the per-task target) to be
// re-walked — not even the first, whose single root position outweighs
// the target. Pinned for direct writes (MTTKRP mode 0), per-task partials
// (MTTKRP mode 1) and a sparse output (TTTP-3) over the same CSF.
TEST(Parallel, UnskewedRegionKeepsPrefixCut) {
  ScopedLanes lanes(2);
  // Slice 0 holds every 2nd (j, k) cell (160 nonzeros, ~54%); slice i >= 1
  // every (i + 15)-th (14 to 20 nonzeros each).
  CooTensor t({9, 20, 16});
  Rng rng(51);
  for (std::int64_t i = 0; i < 9; ++i) {
    for (std::int64_t j = 0; j < 20; ++j) {
      for (std::int64_t k = 0; k < 16; ++k) {
        if ((j * 16 + k) % (i == 0 ? 2 : i + 15) == 0) {
          t.push_back({i, j, k}, rng.next_double() - 0.5);
        }
      }
    }
  }
  t.sort_dedup();
  const DenseTensor f9 = random_dense({9, 4}, rng);
  const DenseTensor f20 = random_dense({20, 4}, rng);
  const DenseTensor f16 = random_dense({16, 4}, rng);

  struct Case {
    std::string expr;
    std::vector<const DenseTensor*> dense;
    bool partials;  ///< root chunks write the output through partials
  };
  const std::vector<Case> cases = {
      {"A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", {&f20, &f16}, false},
      {"A(j,r) = T(i,j,k)*B(i,r)*C(k,r)", {&f9, &f16}, true},
      {"S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)", {&f9, &f20, &f16}, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr);
    const BoundKernel bound = spttn::bind(c.expr, t, c.dense);
    const CsfTensor& csf = bound.csf;
    const std::int64_t nnz = csf.nnz();

    // First nonzero under each level-0 node, and the 2-way prefix cut.
    std::vector<std::int64_t> first_leaf(
        static_cast<std::size_t>(csf.num_nodes(0)) + 1);
    for (std::size_t p = 0; p < first_leaf.size(); ++p) {
      auto node = static_cast<std::int64_t>(p);
      for (int lvl = 0; lvl + 1 < csf.order(); ++lvl) {
        node = csf.level_ptr(lvl)[static_cast<std::size_t>(node)];
      }
      first_leaf[p] = node;
    }
    const auto cut = static_cast<std::size_t>(
        std::lower_bound(first_leaf.begin(), first_leaf.end(), nnz / 2) -
        first_leaf.begin());
    ASSERT_GT(cut, 0u);
    ASSERT_LT(cut + 1, first_leaf.size());
    const std::int64_t heavier =
        std::max(first_leaf[cut], nnz - first_leaf[cut]);
    ASSERT_LE(static_cast<double>(heavier),
              1.25 * static_cast<double>((nnz + 1) / 2))
        << "precondition: the cut must leave both chunks unskewed";

    const Plan plan = plan_kernel(bound);
    FusedExecutor exec(bound.kernel, plan);
    const auto regions = exec.parallel_regions();
    ASSERT_EQ(regions.size(), 1u);
    ASSERT_TRUE(regions[0].sparse) << "root is not the CSF level-0 loop";
    ASSERT_TRUE(regions[0].par_safe);
    ASSERT_EQ(regions[0].writes_out_dense && !regions[0].out_dense_rooted,
              c.partials);

    ExecArgs args;
    args.sparse = &csf;
    args.dense = bound.dense;
    std::vector<double> seq_vals;
    std::vector<double> par_vals;
    DenseTensor seq_out;
    DenseTensor par_out;
    if (bound.kernel.output_is_sparse()) {
      seq_vals.assign(static_cast<std::size_t>(nnz), 0.0);
      par_vals = seq_vals;
      args.out_sparse = seq_vals;
    } else {
      seq_out = make_output(bound);
      par_out = make_output(bound);
      args.out_dense = &seq_out;
    }
    exec.execute(args);
    if (bound.kernel.output_is_sparse()) {
      args.out_sparse = par_vals;
    } else {
      args.out_dense = &par_out;
    }
    args.num_threads = 2;
    ExecStats stats;
    args.stats = &stats;
    exec.execute(args);

    EXPECT_EQ(stats.parallel_regions, 1);
    EXPECT_EQ(stats.nested_regions, 0);
    EXPECT_EQ(stats.threads_used, 2);
    EXPECT_EQ(stats.partition_imbalance,
              static_cast<double>(heavier) * 2.0 / static_cast<double>(nnz));
    if (bound.kernel.output_is_sparse()) {
      EXPECT_EQ(seq_vals, par_vals);
    } else {
      EXPECT_LT(seq_out.max_abs_diff(par_out), 1e-12);
    }
  }
}

// A region whose root chunks write the output through full-size per-task
// partials gets at most one task per partial length L of its weight W, so
// zeroing and folding the copies never outweighs the work they split. An
// MTTKRP over the CSF's last mode writes A(k,r): with a long last mode and
// few nonzeros (W < L) the region runs as one task in place, whose output
// is the 1-thread output bit for bit at every thread count; with many more
// nonzeros than B x L it still splits.
TEST(Parallel, PartialsArePricedAgainstTheWorkTheySplit) {
  ScopedLanes lanes(4);
  constexpr std::int64_t kRank = 4;
  Rng rng(71);
  const auto run = [&](std::int64_t last_mode, std::int64_t every) {
    CooTensor t({16, 12, last_mode});
    for (std::int64_t i = 0; i < 16; ++i) {
      for (std::int64_t j = 0; j < 12; ++j) {
        for (std::int64_t k = 0; k < std::min<std::int64_t>(last_mode, 64);
             ++k) {
          if ((i * 12 * 64 + j * 64 + k) % every == 0) {
            t.push_back({i, j, (k * 997 + i) % last_mode},
                        rng.next_double() - 0.5);
          }
        }
      }
    }
    t.sort_dedup();
    const DenseTensor b = random_dense({16, kRank}, rng);
    const DenseTensor c = random_dense({12, kRank}, rng);
    const BoundKernel bound =
        spttn::bind("A(k,r) = T(i,j,k)*B(i,r)*C(j,r)", t, {&b, &c});
    const std::int64_t out_len = last_mode * kRank;
    SCOPED_TRACE("nnz " + std::to_string(t.nnz()) + ", output length " +
                 std::to_string(out_len));
    const Plan plan = plan_kernel(bound);
    FusedExecutor exec(bound.kernel, plan);
    const auto regions = exec.parallel_regions();
    ASSERT_EQ(regions.size(), 1u);
    ASSERT_TRUE(regions[0].sparse && regions[0].par_safe);
    ASSERT_TRUE(regions[0].writes_out_dense && !regions[0].out_dense_rooted)
        << "precondition: the region must need per-task partials";

    ExecArgs args;
    args.sparse = &bound.csf;
    args.dense = bound.dense;
    DenseTensor seq = make_output(bound);
    args.out_dense = &seq;
    exec.execute(args);
    for (int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      DenseTensor par = make_output(bound);
      args.out_dense = &par;
      args.num_threads = threads;
      ExecStats stats;
      args.stats = &stats;
      exec.execute(args);
      if (t.nnz() < out_len) {
        EXPECT_EQ(stats.parallel_regions, 0);
        EXPECT_EQ(stats.threads_used, 1);
        EXPECT_EQ(stats.partition_imbalance, 1.0);
        EXPECT_EQ(std::memcmp(seq.data(), par.data(),
                              static_cast<std::size_t>(seq.size()) *
                                  sizeof(double)),
                  0)
            << "priced-to-one-task output differs from the 1-thread output";
      } else {
        ASSERT_GT(t.nnz(), 8 * out_len) << "precondition: W > B x L";
        EXPECT_EQ(stats.parallel_regions, 1);
        EXPECT_EQ(stats.threads_used, std::min(threads, 4));
        EXPECT_LT(seq.max_abs_diff(par), 1e-12);
      }
    }
  };
  run(4000, 7);  // 4000 x 4 output, 1,756 nonzeros
  run(4, 1);     // 4 x 4 output, 768 nonzeros
}

// A sparse loop whose body is one term fuses into a chain, which carries
// its own index's stride in the chain multipliers rather than in the
// operand dependencies. A root or second-level chain writing the dense
// output strided by its index must still count as rooted, or the region
// would fall back to per-task output partials. Two shapes: a leaf chain
// under the root (A(i,j,r), nested split over j), and a root that is
// itself the chain (A(i,r) over a one-mode tensor).
TEST(Parallel, ChainCarriedOutputStridesStayRooted) {
  ScopedLanes lanes(4);
  Rng rng(61);
  {
    SCOPED_TRACE("A(i,j,r) = T(i,j)*B(j,r)");
    // 2 x 400 with 150 nonzeros per row: each row outweighs the per-task
    // target of a 4-way split, so both split across j.
    CooTensor t({2, 400});
    for (std::int64_t j = 0; j < 400; ++j) {
      if (j % 8 < 3) t.push_back({0, j}, rng.next_double() - 0.5);
      if (j % 8 >= 5) t.push_back({1, j}, rng.next_double() - 0.5);
    }
    t.sort_dedup();
    ASSERT_EQ(t.nnz(), 300);
    const DenseTensor b = random_dense({400, 6}, rng);
    const BoundKernel bound = spttn::bind("A(i,j,r) = T(i,j)*B(j,r)", t, {&b});
    const Plan plan = plan_kernel(bound);
    FusedExecutor exec(bound.kernel, plan);
    const auto regions = exec.parallel_regions();
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].root_index, bound.kernel.index_id("i"));
    EXPECT_TRUE(regions[0].par_safe);
    EXPECT_TRUE(regions[0].nest_safe);
    EXPECT_TRUE(regions[0].out_dense_rooted);
    EXPECT_TRUE(regions[0].out_dense_inner_rooted);
    EXPECT_TRUE(PlanVerifier(bound.kernel, {}, &bound.stats)
                    .verify(plan, exec)
                    .diags.empty());

    ExecArgs args;
    args.sparse = &bound.csf;
    args.dense = bound.dense;
    DenseTensor seq = make_output(bound);
    args.out_dense = &seq;
    exec.execute(args);
    DenseTensor par = make_output(bound);
    args.out_dense = &par;
    args.num_threads = 4;
    ExecStats stats;
    args.stats = &stats;
    exec.execute(args);
    EXPECT_EQ(stats.nested_regions, 1);
    ASSERT_EQ(seq.size(), par.size());
    EXPECT_EQ(std::memcmp(seq.data(), par.data(),
                          static_cast<std::size_t>(seq.size()) *
                              sizeof(double)),
              0)
        << "4-thread output differs from the 1-thread output";
  }
  {
    SCOPED_TRACE("A(i,r) = T(i)*B(i,r)");
    CooTensor t({50});
    for (std::int64_t i = 0; i < 50; i += 3) {
      t.push_back({i}, rng.next_double() - 0.5);
    }
    t.sort_dedup();
    const DenseTensor b = random_dense({50, 6}, rng);
    const BoundKernel bound = spttn::bind("A(i,r) = T(i)*B(i,r)", t, {&b});
    const Plan plan = plan_kernel(bound);
    const FusedExecutor exec(bound.kernel, plan);
    const auto regions = exec.parallel_regions();
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_TRUE(regions[0].sparse);
    EXPECT_TRUE(regions[0].out_dense_rooted);
    EXPECT_TRUE(PlanVerifier(bound.kernel, {}, &bound.stats)
                    .verify(plan, exec)
                    .diags.empty());
  }
}

// Sequential runs must report stats too (threads_used == 1).
TEST(Parallel, SequentialStatsAreObservable) {
  const auto inst = testing::make_instance(paper_kernels()[0], 6400);
  const Plan plan = plan_kernel(inst->bound);
  FusedExecutor exec(inst->bound.kernel, plan);
  DenseTensor out = make_output(inst->bound);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  args.out_dense = &out;
  ExecStats stats;
  stats.threads_used = 99;  // must be overwritten
  args.stats = &stats;
  exec.execute(args);
  EXPECT_EQ(stats.threads_used, 1);
  EXPECT_EQ(stats.threads_requested, 1);
  EXPECT_EQ(stats.parallel_regions, 0);
  // The sequential path fills the struct for real instead of resetting it
  // to defaults: "ran sequentially" is distinguishable from "never ran".
  EXPECT_TRUE(stats.populated);
  EXPECT_GE(stats.total_regions, 1);
  EXPECT_FALSE(ExecStats{}.populated);
}

}  // namespace
}  // namespace spttn
