// Dedicated tests for the CTF-style pairwise engine: path selection,
// statistics, memory-cap behaviour, and mixed operand kinds.
#include <gtest/gtest.h>

#include "exec/pairwise.hpp"
#include "exec/reference.hpp"
#include "test_helpers.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

TEST(PairwiseStats, OpsAndPeakArePlausible) {
  const auto inst = testing::make_instance(paper_kernels()[0], 5150);
  const Kernel& k = inst->bound.kernel;
  const ContractionPath path = pairwise_best_path(k, inst->sparse);
  DenseTensor out = make_output(inst->bound);
  const PairwiseStats st = pairwise_execute(
      k, path, inst->sparse, inst->dense_slots(), &out, {});
  // At least one multiply per nonzero per rank column.
  EXPECT_GE(st.total_scalar_ops, inst->sparse.nnz());
  EXPECT_GT(st.peak_intermediate_entries, 0);
}

TEST(PairwiseMemoryCap, ThrowsWhenIntermediateExceedsBudget) {
  const auto inst = testing::make_instance(paper_kernels()[2], 5151);
  const Kernel& k = inst->bound.kernel;
  const ContractionPath path = pairwise_best_path(k, inst->sparse);
  DenseTensor out = make_output(inst->bound);
  EXPECT_THROW(pairwise_execute(k, path, inst->sparse, inst->dense_slots(),
                                &out, {}, /*max_entries=*/4),
               Error);
}

TEST(PairwisePathChoice, PrefersSparseChainForTttp) {
  // The fused-optimistic estimate would pick the dense (U*V) pre-product;
  // a pairwise framework must not, because that intermediate materializes
  // densely. The chosen first term must involve the sparse tensor.
  const auto inst = testing::make_instance(paper_kernels()[4], 5152);
  const Kernel& k = inst->bound.kernel;
  const ContractionPath path = pairwise_best_path(k, inst->sparse);
  const PathTerm& first = path.terms.front();
  const bool sparse_first =
      (first.lhs.kind == PathOperand::Kind::kInput &&
       first.lhs.id == k.sparse_input()) ||
      (first.rhs.kind == PathOperand::Kind::kInput &&
       first.rhs.id == k.sparse_input());
  EXPECT_TRUE(sparse_first) << path.to_string(k);
}

TEST(PairwiseFlops, DensePreProductCostsMoreThanChain) {
  const auto inst = testing::make_instance(paper_kernels()[4], 5153);
  const Kernel& k = inst->bound.kernel;
  double chain_cost = -1;
  double dense_first_cost = -1;
  for (const auto& p : enumerate_paths(k)) {
    const PathTerm& first = p.terms.front();
    const bool sparse_first =
        (first.lhs.kind == PathOperand::Kind::kInput &&
         first.lhs.id == k.sparse_input()) ||
        (first.rhs.kind == PathOperand::Kind::kInput &&
         first.rhs.id == k.sparse_input());
    const double c = pairwise_path_flops(k, p, inst->sparse);
    if (sparse_first) {
      if (chain_cost < 0 || c < chain_cost) chain_cost = c;
    } else {
      if (dense_first_cost < 0 || c < dense_first_cost) dense_first_cost = c;
    }
  }
  ASSERT_GT(chain_cost, 0);
  ASSERT_GT(dense_first_cost, 0);
  EXPECT_LT(chain_cost, dense_first_cost);
}

// A sparse-derived intermediate holds the exact projection of the tensor
// onto its sparse modes, non-prefix (i,k) and prefix (i,j) alike. In
// y(i) = T(i,j,k)*x(j)*z(k) each first term costs 2*nnz, and the second
// is driven by the smaller dense vector, so it costs twice the projection.
TEST(PairwiseFlops, ProjectionUsesExactCountsFromCoo) {
  Rng rng(12);
  const CooTensor t = random_coo({9, 8, 7}, 60, rng);
  const DenseTensor x = random_dense({8}, rng);
  const DenseTensor z = random_dense({7}, rng);
  const BoundKernel bound = bind("y(i) = T(i,j,k)*x(j)*z(k)", t, {&x, &z});
  const Kernel& k = bound.kernel;
  const std::vector<int> ik{0, 2};
  const std::int64_t proj_ik = t.nnz_projection(ik);
  const std::int64_t proj_ij = t.nnz_prefix(2);
  ASSERT_GT(proj_ik, 7);
  ASSERT_GT(proj_ij, 8);
  const double nnz = static_cast<double>(t.nnz());
  int checked = 0;
  for (const ContractionPath& p : enumerate_paths(k)) {
    const PathTerm& first = p.terms.front();
    if (first.lhs.id != k.sparse_input()) continue;  // x*z goes first
    const bool keeps_k = first.rhs.id == 1;  // T*x leaves X1(i,k)
    const double proj =
        static_cast<double>(keeps_k ? proj_ik : proj_ij);
    EXPECT_DOUBLE_EQ(pairwise_path_flops(k, p, t), 2 * nnz + 2 * proj)
        << p.to_string(k);
    ++checked;
  }
  EXPECT_EQ(checked, 2);
}

TEST(PairwiseEdgeCases, EmptySparseTensor) {
  CooTensor empty({4, 4, 4});
  empty.sort_dedup();
  Rng rng(1);
  const DenseTensor b = random_dense({4, 3}, rng);
  const DenseTensor c = random_dense({4, 3}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", empty, {&b, &c});
  const ContractionPath path = pairwise_best_path(bound.kernel, empty);
  DenseTensor out = make_output(bound);
  out.fill(3.0);
  pairwise_execute(bound.kernel, path, empty, bound.dense, &out, {});
  EXPECT_DOUBLE_EQ(out.norm(), 0.0);
}

TEST(PairwiseEdgeCases, SingleContractionKernel) {
  // Two-input kernel: the single term writes the output directly.
  Rng rng(2);
  CooTensor t = random_coo({6, 5}, 12, rng);
  const DenseTensor x = random_dense({5}, rng);
  const BoundKernel bound = bind("y(i) = T(i,j)*x(j)", t, {&x});
  const ContractionPath path = pairwise_best_path(bound.kernel, t);
  DenseTensor got = make_output(bound);
  pairwise_execute(bound.kernel, path, t, bound.dense, &got, {});
  DenseTensor want = make_output(bound);
  reference_execute(bound.kernel, t, bound.dense, &want, {});
  EXPECT_LT(want.max_abs_diff(got), 1e-12);
}

}  // namespace
}  // namespace spttn
