// Tests for the extension APIs beyond the paper's evaluated system: CSF
// storage-order search and measurement-based autotuning.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "exec/reference.hpp"
#include "exec/spttn.hpp"
#include "tensor/generate.hpp"
#include "test_helpers.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

TEST(PermuteModes, PhysicallyReordersCoordinates) {
  CooTensor t({4, 5, 6});
  t.push_back({1, 2, 3}, 7.0);
  t.push_back({0, 4, 5}, 2.0);
  t.sort_dedup();
  const CooTensor p = permute_sparse_modes(t, {2, 0, 1});
  EXPECT_EQ(p.dims(), (std::vector<std::int64_t>{6, 4, 5}));
  ASSERT_EQ(p.nnz(), 2);
  // Sorted order after permutation: (3,1,2)=7 then (5,0,4)=2.
  EXPECT_EQ(p.coord(0)[0], 3);
  EXPECT_EQ(p.coord(0)[1], 1);
  EXPECT_EQ(p.coord(0)[2], 2);
  EXPECT_DOUBLE_EQ(p.value(0), 7.0);
}

TEST(RewriteExpr, PermutesOnlySparseOperand) {
  const std::string out = rewrite_expr_with_csf_order(
      "A(i,a) = T(i,j,k)*B(j,a)*C(k,a)", {2, 0, 1});
  EXPECT_EQ(out, "A(i,a) = T(k,i,j) * B(j,a) * C(k,a)");
}

TEST(CsfSearch, IdentityIsOptimalForSymmetricTensor) {
  // With identical mode extents and uniform sparsity no permutation should
  // beat the identity by model cost — and the search must return an
  // executable result.
  const auto inst = testing::make_instance(paper_kernels()[0], 808);
  std::vector<const DenseTensor*> dense;
  for (const auto& f : inst->factors) dense.push_back(&f);
  const CsfSearchResult r = search_csf_orders(
      paper_kernels()[0].expr, inst->sparse, dense);
  EXPECT_EQ(r.mode_order.size(), 3u);
  EXPECT_FALSE(r.expr.empty());
}

TEST(CsfSearch, PermutedProblemExecutesCorrectly) {
  const auto inst = testing::make_instance(paper_kernels()[2], 809);
  std::vector<const DenseTensor*> dense;
  for (const auto& f : inst->factors) dense.push_back(&f);
  const CsfSearchResult r =
      search_csf_orders(paper_kernels()[2].expr, inst->sparse, dense);
  const CooTensor permuted =
      permute_sparse_modes(inst->sparse, r.mode_order);
  const BoundKernel bound = bind(r.expr, permuted, dense);
  const Plan plan = plan_kernel(bound);
  DenseTensor got = make_output(bound);
  run_plan(bound, plan, &got, {});
  // The reference on the ORIGINAL problem must agree (outputs have the
  // same index meaning; only the sparse storage order changed).
  DenseTensor want = make_output(inst->bound);
  reference_execute(inst->bound.kernel, inst->sparse, inst->dense_slots(),
                    &want, {});
  EXPECT_LT(want.max_abs_diff(got), 1e-9);
}

// The order search applies make_plan's rule across storage orders: only
// orders whose nest is within kFlopGroupTolerance of the cheapest order's
// flops compete on cost. On this skewed TTMc-3 the lowest-cost nest over
// all orders is asymptotically worse than the cheapest order's.
TEST(CsfSearch, ChoosesWithinTheFlopGroup) {
  Rng rng(1);
  const CooTensor t = hierarchical_coo({1000, 100, 10}, 250, {2, 3}, rng);
  const DenseTensor u = random_dense({100, 8}, rng);
  const DenseTensor v = random_dense({10, 8}, rng);
  const std::string expr = "Y(i,a,b) = T(i,j,k)*U(j,a)*V(k,b)";
  const PlannerOptions options;
  const auto flops_of = [&](const std::vector<int>& perm) {
    const CooTensor permuted = permute_sparse_modes(t, perm);
    const BoundKernel bound =
        bind(rewrite_expr_with_csf_order(expr, perm), permuted, {&u, &v});
    return plan_kernel(bound, options).flops;
  };
  std::vector<int> perm = {0, 1, 2};
  double min_flops = std::numeric_limits<double>::infinity();
  do {
    min_flops = std::min(min_flops, flops_of(perm));
  } while (std::next_permutation(perm.begin(), perm.end()));

  const CsfSearchResult r = search_csf_orders(expr, t, {&u, &v}, options);
  EXPECT_LE(flops_of(r.mode_order),
            kFlopGroupTolerance * min_flops);
}

TEST(Autotune, ReturnsRunnableFastPlan) {
  const auto inst = testing::make_instance(paper_kernels()[2], 810);
  const AutotuneResult r = autotune_kernel(inst->bound);
  EXPECT_GT(r.candidates, 2);
  EXPECT_GT(r.best_seconds, 0.0);
  // The tuned plan must execute and agree with the reference.
  DenseTensor got = make_output(inst->bound);
  run_plan(inst->bound, r.best, &got, {});
  DenseTensor want = make_output(inst->bound);
  reference_execute(inst->bound.kernel, inst->sparse, inst->dense_slots(),
                    &want, {});
  EXPECT_LT(want.max_abs_diff(got), 1e-9);
}

TEST(Autotune, WorksOnSparseOutputKernels) {
  const auto inst = testing::make_instance(paper_kernels()[4], 811);  // tttp
  const AutotuneResult r = autotune_kernel(inst->bound, {}, 2, 2, 1);
  EXPECT_GT(r.candidates, 0);
  std::vector<double> got(static_cast<std::size_t>(inst->sparse.nnz()));
  run_plan(inst->bound, r.best, nullptr, got);
  std::vector<double> want(got.size());
  reference_execute(inst->bound.kernel, inst->sparse, inst->dense_slots(),
                    nullptr, want);
  for (std::size_t e = 0; e < got.size(); ++e) {
    ASSERT_NEAR(got[e], want[e], 1e-9);
  }
}

}  // namespace
}  // namespace spttn
