// Loop-nest explorer: type any SpTTN einsum and inspect what the planner
// sees — every executable contraction path, the cost-optimal loop nest per
// path, and the chosen plan rendered as pseudocode.
//
//   build/examples/loop_explorer --expr "S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)" --sparse-dim 200 --rank 16
#include <iostream>

#include "core/enumerate.hpp"
#include "core/order_dp.hpp"
#include "exec/spttn.hpp"
#include "tensor/generate.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace spttn;
  Cli cli("loop_explorer");
  const auto* expr = cli.add_string(
      "expr", "S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)", "kernel expression");
  const auto* sparse_dim = cli.add_int("sparse-dim", 200, "sparse mode size");
  const auto* rank = cli.add_int("rank", 16, "dense index extent");
  const auto* sparsity = cli.add_double("sparsity", 0.01, "nnz fraction");
  const auto* bound = cli.add_int("bound", 2, "buffer dimension bound");
  const auto* seed = cli.add_int("seed", 5, "random seed");
  cli.parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(*seed));
  Kernel probe = Kernel::parse(*expr);
  std::vector<std::int64_t> sdims(
      static_cast<std::size_t>(probe.sparse_ref().order()), *sparse_dim);
  double space = 1;
  for (auto d : sdims) space *= static_cast<double>(d);
  const CooTensor t = random_coo(
      sdims, static_cast<std::int64_t>(space * *sparsity) + 1, rng);

  std::vector<DenseTensor> factors;
  std::vector<const DenseTensor*> ptrs;
  for (int i = 0; i < probe.num_inputs(); ++i) {
    if (i == probe.sparse_input()) continue;
    std::vector<std::int64_t> dims;
    for (int id : probe.input(i).idx) {
      const int lvl = probe.csf_level(id);
      dims.push_back(lvl >= 0 ? sdims[static_cast<std::size_t>(lvl)] : *rank);
    }
    factors.push_back(random_dense(dims, rng));
  }
  for (const auto& f : factors) ptrs.push_back(&f);
  const BoundKernel bk = bind(*expr, t, ptrs);

  std::cout << "kernel:  " << bk.kernel.to_string() << "\n";
  std::cout << "dims:    " << bk.kernel.dims_to_string() << "\n";
  std::cout << "tensor:  " << t.describe() << "\n\n";

  int total = 0;
  const auto paths = executable_paths(bk.kernel, bk.stats, &total);
  std::cout << total << " ordered contraction paths, " << paths.size()
            << " single-CSF executable:\n\n";

  const BoundedBufferBlasCost cost(static_cast<int>(*bound), 1, &bk.stats,
                                   true);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const double flops = path_flops(bk.kernel, paths[i], bk.stats);
    const double orders = count_orders(bk.kernel, paths[i], true);
    std::cout << "path " << i + 1 << ": " << paths[i].to_string(bk.kernel)
              << "\n  ~" << human_count(flops) << " flops, "
              << human_count(orders) << " CSF-consistent loop orders\n";
    const DpResult dp = optimal_order(bk.kernel, paths[i], cost);
    if (dp.feasible) {
      std::cout << "  optimal order " << order_to_string(bk.kernel, dp.best)
                << "  cost " << dp.best_cost.to_string() << "  ("
                << dp.subproblems << " DP subproblems)\n";
    } else {
      std::cout << "  no loop nest within buffer bound " << *bound << "\n";
    }
  }

  PlannerOptions opts;
  opts.buffer_dim_bound = static_cast<int>(*bound);
  const Plan plan = plan_kernel(bk, opts);
  std::cout << "\n=== chosen plan ===\n" << plan.describe(bk.kernel);
  return 0;
}
