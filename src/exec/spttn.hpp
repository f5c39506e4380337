// Public convenience API for SpTTN-Cyclops-style execution.
//
// Typical use:
//   auto bound = spttn::bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", T, {&B, &C});
//   spttn::Plan plan = spttn::plan_kernel(bound);
//   spttn::run_plan(bound, plan, &A, {});
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "exec/executor.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf_tensor.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/einsum.hpp"

namespace spttn {

/// A kernel bound to concrete tensors: dimensions resolved, CSF built,
/// sparsity statistics extracted.
struct BoundKernel {
  Kernel kernel;
  const CooTensor* coo = nullptr;
  CsfTensor csf;
  SparsityStats stats;
  /// One slot per kernel input; the sparse slot is null.
  std::vector<const DenseTensor*> dense;
};

/// Parse `expr`, take `sparse` as the first input's tensor (or the input
/// named `sparse_name`), bind the remaining inputs to `dense_factors` in
/// order of appearance, infer all index dimensions, and build the CSF.
BoundKernel bind(const std::string& expr, const CooTensor& sparse,
                 std::vector<const DenseTensor*> dense_factors,
                 const std::string& sparse_name = "");

/// Parse `expr` and bind index dimensions only (no CSF build, no stats):
/// the piece of bind() shared with the serving layer, which binds many
/// kernels against one already-built CSF of the same sparse tensor.
/// `slots`, when non-null, receives one entry per kernel input (the sparse
/// slot is null), ready for ExecArgs::dense.
Kernel bind_kernel_dims(const std::string& expr, const CooTensor& sparse,
                        const std::vector<const DenseTensor*>& dense_factors,
                        std::vector<const DenseTensor*>* slots,
                        const std::string& sparse_name = "");

/// Plan with the paper's default metric (bounded buffer dim = 2 + most
/// independent dense loops + fewest modeled cache misses).
Plan plan_kernel(const BoundKernel& bound, const PlannerOptions& options = {});

/// Execute a plan. Exactly one of out_dense/out_sparse applies, depending
/// on the kernel's output sparsity. `num_threads` > 1 partitions the root
/// loop(s) over the process-wide thread pool (see ExecArgs::num_threads).
void run_plan(const BoundKernel& bound, const Plan& plan,
              DenseTensor* out_dense, std::span<double> out_sparse,
              int num_threads = 1);

/// Allocate a correctly shaped dense output for the bound kernel.
DenseTensor make_output(const BoundKernel& bound);

}  // namespace spttn
