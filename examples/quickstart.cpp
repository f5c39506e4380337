// Quickstart: plan and execute one SpTTN kernel (MTTKRP) end to end.
//
//   build/examples/quickstart
//
// Shows the three-call public API: bind -> plan_kernel -> run_plan, plus
// the plan introspection (chosen contraction path, loop nest, buffers).
#include <iostream>

#include "exec/spttn.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

int main() {
  using namespace spttn;

  // A sparse 3-way tensor with realistic fiber structure.
  Rng rng(2024);
  const CooTensor t = hierarchical_coo({1000, 800, 900}, 400, {40.0, 6.0},
                                       rng);
  std::cout << "sparse tensor: " << t.describe() << "\n";

  // Dense CP factors.
  const DenseTensor b = random_dense({800, 32}, rng);
  const DenseTensor c = random_dense({900, 32}, rng);

  // 1) Bind the kernel expression to tensors (dims inferred, CSF built).
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k) * B(j,r) * C(k,r)", t, {&b, &c});

  // 2) Plan: search contraction paths, run Algorithm 1, pick the
  //    minimum-cost fully-fused loop nest.
  const Plan plan = plan_kernel(bound);
  std::cout << "\n--- chosen plan ---\n" << plan.describe(bound.kernel);
  std::cout << "paths: " << plan.paths_executable << " executable reached of "
            << plan.paths_total << " ordered; DP solved "
            << plan.dp_subproblems << " subproblems\n";

  // 3) Execute.
  DenseTensor a = make_output(bound);
  run_plan(bound, plan, &a, {});
  std::cout << "\noutput " << a.describe() << ", |A| = " << a.norm() << "\n";
  return 0;
}
