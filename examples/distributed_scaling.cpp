// Distributed-memory SpTTN execution: each rank owns a contiguous,
// nnz-balanced range of whole fibers and runs its local kernel, with
// collectives through the shared-memory transport (paper Section 5.2). Each
// row reports the measured collective seconds beside the alpha-beta
// model's price of the same collectives.
//
//   build/examples/distributed_scaling [--ranks 16] [--kernel mttkrp|ttmc]
#include <iostream>

#include "dist/dist_spttn.hpp"
#include "exec/spttn.hpp"
#include "tensor/generate.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace spttn;
  Cli cli("distributed_scaling");
  const auto* max_ranks = cli.add_int("ranks", 16, "largest rank count");
  const auto* n = cli.add_int("n", 300, "mode size");
  const auto* rank = cli.add_int("rank", 16, "dense rank");
  const auto* kernel_name =
      cli.add_string("kernel", "mttkrp", "mttkrp or ttmc");
  const auto* seed = cli.add_int("seed", 4, "random seed");
  cli.parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(*seed));
  const CooTensor t = hierarchical_coo({*n, *n, *n}, *n / 2, {30.0, 5.0},
                                       rng);
  const DenseTensor u = random_dense({*n, *rank}, rng);
  const DenseTensor v = random_dense({*n, *rank}, rng);

  const std::string expr =
      *kernel_name == "ttmc" ? "S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)"
                             : "A(i,r) = T(i,j,k)*U(j,r)*V(k,r)";
  const BoundKernel bound = bind(expr, t, {&u, &v});
  std::cout << "kernel: " << bound.kernel.to_string() << "\n"
            << "tensor: " << t.describe() << "\n\n";
  std::cout << "ranks  local[s]  comm[s]   model[s]  total[s]  speedup  "
               "imbalance\n";

  double t1 = 0;
  for (int p = 1; p <= *max_ranks; p *= 2) {
    DistSpttn dist(bound, p);
    ShmemComm comm(p);
    // Sequential ranks: this table reads per-rank seconds, so don't let
    // concurrently scheduled ranks time-share the cores under the timer.
    const DistResult r = dist.run(comm, {}, nullptr, {},
                                  /*local_threads=*/1,
                                  /*concurrent_ranks=*/false);
    if (p == 1) t1 = r.time();
    std::cout << strfmt("%5d  %.5f   %.6f  %.6f  %.5f   %5.2fx   %.2f\n", p,
                        r.max_local_seconds, r.comm_seconds,
                        r.comm_model_seconds, r.time(), t1 / r.time(),
                        r.imbalance);
  }
  std::cout << "\n(local kernel times and comm[s] are measured; model[s] "
               "prices the same collectives with the alpha-beta model of "
               "src/dist/comm.hpp)\n";
  return 0;
}
