// Correctness of the fused executor and every baseline, all validated
// against the exact reference executor.
#include <gtest/gtest.h>

#include <memory>

#include "core/enumerate.hpp"
#include "exec/executor.hpp"
#include "exec/pairwise.hpp"
#include "exec/reference.hpp"
#include "exec/schedules.hpp"
#include "exec/specialized.hpp"
#include "exec/unfactorized.hpp"
#include "test_helpers.hpp"

namespace spttn {
namespace {

using testing::Instance;
using testing::KernelCase;
using testing::paper_kernels;

constexpr double kTol = 1e-9;

/// Reference result holder (dense or sparse output).
struct Golden {
  DenseTensor dense;
  std::vector<double> sparse_vals;
  bool is_sparse = false;
};

Golden golden(const Instance& inst) {
  Golden g;
  const Kernel& k = inst.bound.kernel;
  g.is_sparse = k.output_is_sparse();
  if (g.is_sparse) {
    g.sparse_vals.assign(static_cast<std::size_t>(inst.sparse.nnz()), 0.0);
    reference_execute(k, inst.sparse, inst.dense_slots(), nullptr,
                      g.sparse_vals);
  } else {
    g.dense = make_output(inst.bound);
    reference_execute(k, inst.sparse, inst.dense_slots(), &g.dense, {});
  }
  return g;
}

double diff_against(const Golden& g, const DenseTensor& dense,
                    std::span<const double> sparse_vals) {
  if (g.is_sparse) {
    double m = 0;
    for (std::size_t e = 0; e < g.sparse_vals.size(); ++e) {
      m = std::max(m, std::abs(g.sparse_vals[e] - sparse_vals[e]));
    }
    return m;
  }
  return g.dense.max_abs_diff(dense);
}

struct FusedVsReference : ::testing::TestWithParam<int> {};

TEST_P(FusedVsReference, EveryOrderOfEveryExecutablePathMatches) {
  const KernelCase kc = paper_kernels()[static_cast<std::size_t>(GetParam())];
  const auto inst = testing::make_instance(kc, 555 + GetParam());
  const Kernel& kernel = inst->bound.kernel;
  const Golden g = golden(*inst);

  const auto paths = executable_paths(kernel, inst->bound.stats);
  ASSERT_FALSE(paths.empty());
  int paths_tested = 0;
  std::uint64_t orders_tested = 0;
  for (const auto& path : paths) {
    if (++paths_tested > 3) break;
    EnumerateOptions eopts;
    eopts.limit = 48;  // cap per path; orders differ structurally early
    enumerate_orders(kernel, path, eopts, [&](const LoopOrder& order) {
      FusedExecutor exec(kernel, path, order);
      ExecArgs args;
      args.sparse = &inst->bound.csf;
      args.dense = inst->bound.dense;
      DenseTensor out;
      std::vector<double> out_vals;
      if (g.is_sparse) {
        out_vals.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
        args.out_sparse = out_vals;
      } else {
        out = make_output(inst->bound);
        args.out_dense = &out;
      }
      exec.execute(args);
      ++orders_tested;
      ASSERT_LT(diff_against(g, out, out_vals), kTol)
          << kc.name << "\npath: " << path.to_string(kernel)
          << "\norder: " << order_to_string(kernel, order);
    });
  }
  ASSERT_GT(orders_tested, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, FusedVsReference, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int>& info) {
      return paper_kernels()[static_cast<std::size_t>(info.param)].name;
    });

struct BaselinesVsReference : ::testing::TestWithParam<int> {};

TEST_P(BaselinesVsReference, UnfactorizedMatches) {
  const KernelCase kc = paper_kernels()[static_cast<std::size_t>(GetParam())];
  const auto inst = testing::make_instance(kc, 777 + GetParam());
  const Golden g = golden(*inst);
  UnfactorizedExecutor exec(inst->bound.kernel);
  DenseTensor out;
  std::vector<double> out_vals;
  if (g.is_sparse) {
    out_vals.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
    exec.execute(inst->bound.csf, inst->dense_slots(), nullptr, out_vals);
  } else {
    out = make_output(inst->bound);
    exec.execute(inst->bound.csf, inst->dense_slots(), &out, {});
  }
  EXPECT_LT(diff_against(g, out, out_vals), kTol) << kc.name;
}

TEST_P(BaselinesVsReference, PairwiseMatchesOnBestAndWorstPaths) {
  const KernelCase kc = paper_kernels()[static_cast<std::size_t>(GetParam())];
  const auto inst = testing::make_instance(kc, 999 + GetParam());
  const Golden g = golden(*inst);
  const Kernel& kernel = inst->bound.kernel;
  const auto all = enumerate_paths(kernel);
  // Check the framework-chosen path plus a couple of arbitrary ones
  // (pairwise must be correct on any path, executable or not).
  std::vector<ContractionPath> to_test{
      pairwise_best_path(kernel, inst->bound.stats)};
  to_test.push_back(all.front());
  to_test.push_back(all.back());
  for (const auto& path : to_test) {
    DenseTensor out;
    std::vector<double> out_vals;
    PairwiseStats st;
    if (g.is_sparse) {
      out_vals.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
      st = pairwise_execute(kernel, path, inst->sparse, inst->dense_slots(),
                            nullptr, out_vals);
    } else {
      out = make_output(inst->bound);
      st = pairwise_execute(kernel, path, inst->sparse, inst->dense_slots(),
                            &out, {});
    }
    EXPECT_LT(diff_against(g, out, out_vals), kTol)
        << kc.name << " path " << path.to_string(kernel);
    EXPECT_GT(st.total_scalar_ops, 0);
  }
}

TEST_P(BaselinesVsReference, SparseLnrScheduleMatches) {
  const KernelCase kc = paper_kernels()[static_cast<std::size_t>(GetParam())];
  const auto inst = testing::make_instance(kc, 1313 + GetParam());
  const Golden g = golden(*inst);
  const Kernel& kernel = inst->bound.kernel;
  const auto [path, order] = sparselnr_schedule(kernel);
  FusedExecutor exec(kernel, path, order);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  DenseTensor out;
  std::vector<double> out_vals;
  if (g.is_sparse) {
    out_vals.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
    args.out_sparse = out_vals;
  } else {
    out = make_output(inst->bound);
    args.out_dense = &out;
  }
  exec.execute(args);
  EXPECT_LT(diff_against(g, out, out_vals), kTol) << kc.name;
}

TEST_P(BaselinesVsReference, UnfusedPairwiseScheduleMatches) {
  const KernelCase kc = paper_kernels()[static_cast<std::size_t>(GetParam())];
  const auto inst = testing::make_instance(kc, 1717 + GetParam());
  const Golden g = golden(*inst);
  const Kernel& kernel = inst->bound.kernel;
  const auto [path, order] = unfused_pairwise_schedule(kernel);
  FusedExecutor exec(kernel, path, order);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  DenseTensor out;
  std::vector<double> out_vals;
  if (g.is_sparse) {
    out_vals.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
    args.out_sparse = out_vals;
  } else {
    out = make_output(inst->bound);
    args.out_dense = &out;
  }
  exec.execute(args);
  EXPECT_LT(diff_against(g, out, out_vals), kTol) << kc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, BaselinesVsReference, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int>& info) {
      return paper_kernels()[static_cast<std::size_t>(info.param)].name;
    });

TEST(Specialized, Mttkrp3MatchesReference) {
  const auto inst = testing::make_instance(paper_kernels()[0], 4242);
  const Golden g = golden(*inst);
  DenseTensor out = make_output(inst->bound);
  splatt_mttkrp3(inst->bound.csf, inst->factors[0], inst->factors[1], &out);
  EXPECT_LT(g.dense.max_abs_diff(out), kTol);
}

TEST(Specialized, Mttkrp4MatchesReference) {
  const auto inst = testing::make_instance(paper_kernels()[1], 4243);
  const Golden g = golden(*inst);
  DenseTensor out = make_output(inst->bound);
  splatt_mttkrp4(inst->bound.csf, inst->factors[0], inst->factors[1],
                 inst->factors[2], &out);
  EXPECT_LT(g.dense.max_abs_diff(out), kTol);
}

TEST(Specialized, Ttmc3MatchesReference) {
  const auto inst = testing::make_instance(paper_kernels()[2], 4244);
  const Golden g = golden(*inst);
  DenseTensor out = make_output(inst->bound);
  ttmc3_specialized(inst->bound.csf, inst->factors[0], inst->factors[1],
                    &out);
  EXPECT_LT(g.dense.max_abs_diff(out), kTol);
}

TEST(Specialized, Tttp3MatchesReference) {
  const auto inst = testing::make_instance(paper_kernels()[4], 4245);
  const Golden g = golden(*inst);
  std::vector<double> out(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
  tttp3_specialized(inst->bound.csf, inst->factors[0], inst->factors[1],
                    inst->factors[2], out);
  double m = 0;
  for (std::size_t e = 0; e < out.size(); ++e) {
    m = std::max(m, std::abs(out[e] - g.sparse_vals[e]));
  }
  EXPECT_LT(m, kTol);
}

TEST(FusedExecutor, ReusableAcrossExecutions) {
  // Buffers must be reset correctly so a second run gives the same result.
  const auto inst = testing::make_instance(paper_kernels()[2], 31337);
  const Kernel& kernel = inst->bound.kernel;
  const auto paths = executable_paths(kernel, inst->bound.stats);
  const auto [path, order] = sparselnr_schedule(kernel);
  FusedExecutor exec(kernel, path, order);
  DenseTensor out1 = make_output(inst->bound);
  DenseTensor out2 = make_output(inst->bound);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  args.out_dense = &out1;
  exec.execute(args);
  args.out_dense = &out2;
  exec.execute(args);
  EXPECT_LT(out1.max_abs_diff(out2), kTol);
}

TEST(FusedExecutor, AccumulateMode) {
  const auto inst = testing::make_instance(paper_kernels()[0], 2024);
  const Kernel& kernel = inst->bound.kernel;
  const auto paths = executable_paths(kernel, inst->bound.stats);
  ASSERT_FALSE(paths.empty());
  EnumerateOptions eopts;
  eopts.limit = 1;
  LoopOrder order;
  enumerate_orders(kernel, paths[0], eopts,
                   [&](const LoopOrder& o) { order = o; });
  FusedExecutor exec(kernel, paths[0], order);
  DenseTensor out = make_output(inst->bound);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  args.out_dense = &out;
  exec.execute(args);
  const double norm1 = out.norm();
  args.accumulate = true;
  exec.execute(args);  // doubles the result
  EXPECT_NEAR(out.norm(), 2 * norm1, 1e-6 * norm1);
}

TEST(FusedExecutor, EmptySparseTensorGivesZero) {
  CooTensor empty({5, 4, 3});
  empty.sort_dedup();
  Rng rng(3);
  const DenseTensor b = random_dense({4, 2}, rng);
  const DenseTensor c = random_dense({3, 2}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", empty, {&b, &c});
  const Plan plan = plan_kernel(bound);
  DenseTensor out = make_output(bound);
  out.fill(7.0);
  run_plan(bound, plan, &out, {});
  EXPECT_DOUBLE_EQ(out.norm(), 0.0);
}

TEST(FusedExecutor, ValidatesBindings) {
  const auto inst = testing::make_instance(paper_kernels()[0], 11);
  const Kernel& kernel = inst->bound.kernel;
  const auto paths = executable_paths(kernel, inst->bound.stats);
  EnumerateOptions eopts;
  eopts.limit = 1;
  LoopOrder order;
  enumerate_orders(kernel, paths[0], eopts,
                   [&](const LoopOrder& o) { order = o; });
  FusedExecutor exec(kernel, paths[0], order);
  ExecArgs args;  // nothing bound
  EXPECT_THROW(exec.execute(args), Error);
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  EXPECT_THROW(exec.execute(args), Error);  // missing output
  DenseTensor wrong({3, 3});
  args.out_dense = &wrong;
  EXPECT_THROW(exec.execute(args), Error);  // wrong output shape
}

TEST(FusedExecutor, RejectsOverflowingOutputExtents) {
  // O has 2^32 * 2^32 * 4 elements: the stride computation must report it,
  // not wrap it.
  const std::int64_t big = std::int64_t{1} << 32;
  CooTensor t({big, big});
  t.push_back({0, 1}, 1.0);
  t.push_back({big - 1, 2}, 2.0);
  t.sort_dedup();
  DenseTensor b({4});
  b.fill(1.0);
  const auto bound = bind("O(i,j,r) = T(i,j)*B(r)", t, {&b});
  const Plan plan = make_plan(bound.kernel, bound.stats, PlannerOptions{});
  EXPECT_THROW(FusedExecutor(bound.kernel, plan), Error);
}

TEST(FusedExecutor, OffloadsTrailingDenseLoops) {
  // The Listing 3 TTMc nest offloads both terms' trailing dense loops.
  Kernel k = Kernel::parse("S(i,r,s) = T(i,j,k)*V(k,s)*U(j,r)");
  for (const auto& [n, d] : std::vector<std::pair<std::string, std::int64_t>>{
           {"i", 10}, {"j", 9}, {"k", 8}, {"s", 5}, {"r", 4}}) {
    k.set_index_dim(k.index_id(n), d);
  }
  const ContractionPath path = chain_path(k);
  const int i = k.index_id("i"), j = k.index_id("j"), kk = k.index_id("k"),
            r = k.index_id("r"), s = k.index_id("s");
  const FusedExecutor exec(k, path, {{i, j, kk, s}, {i, j, s, r}});
  EXPECT_EQ(exec.offloaded_terms(), 2);
  EXPECT_EQ(exec.collapsed_loops(), 3);  // s | s,r
}

}  // namespace
}  // namespace spttn
