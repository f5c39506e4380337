// Section 7 TTTc results: the order-6 tensor-train contraction kernel
// (paper Eq. 4). Paper: 534x over TACO at N=40, 0.1% sparsity; good strong
// scaling for N=80 at 1% and 0.1%. Mode sizes default smaller here so the
// unfactorized baseline remains runnable; --n raises them.
#include "dist/dist_spttn.hpp"

#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {

std::string tttc_expr() {
  // Z(e,n) = sum T(i,j,k,l,m,n) A(i,a) B(a,j,b) C(b,k,c) D(c,l,d) E(d,m,e)
  return "Z(e,n) = T(i,j,k,l,m,n)*A(i,a)*B(a,j,b)*C(b,k,c)*D(c,l,d)*"
         "E(d,m,e)";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_tttc");
  const auto* n = cli.add_int("n", 14, "mode size (paper: 40/80)");
  const auto* rank = cli.add_int("rank", 8, "tensor-train rank (paper: 16)");
  const auto* reps = cli.add_int("reps", 2, "timing repetitions");
  const auto* seed = cli.add_int("seed", 17, "generator seed");
  const auto* max_ranks = cli.add_int("max-ranks", 16, "scaling rank counts");
  cli.parse(argc, argv);

  Table table(strfmt("Section 7 — TTTc (order-6 tensor train), N=%lld R=%lld",
                     static_cast<long long>(*n),
                     static_cast<long long>(*rank)));
  table.set_header({"sparsity", "nnz", "SpTTN[s]", "TACO[s]", "vs TACO",
                    "plan depth", "bufdim", "paths searched"});

  std::unique_ptr<Problem> scaling_problem;
  for (const double sparsity : {0.01, 0.001}) {
    Rng rng(static_cast<std::uint64_t>(*seed));
    double space = 1;
    for (int m = 0; m < 6; ++m) space *= static_cast<double>(*n);
    const auto nnz = static_cast<std::int64_t>(space * sparsity) + 1;
    CooTensor t = random_coo({*n, *n, *n, *n, *n, *n}, nnz, rng);
    auto p = make_problem(
        tttc_expr(), std::move(t),
        {{"a", *rank}, {"b", *rank}, {"c", *rank}, {"d", *rank}, {"e", *rank}},
        rng);
    Plan plan;
    const RunResult ours = run_spttn(*p, static_cast<int>(*reps), {}, &plan);
    // Unfactorized TTTc costs nnz * R^5 scalar ops; guard the bench budget
    // (the paper likewise could not run TACO on the large TTTc inputs).
    RunResult taco;
    double taco_ops = static_cast<double>(p->sparse.nnz());
    for (int q = 0; q < 5; ++q) taco_ops *= static_cast<double>(*rank);
    if (taco_ops < 1.5e9) {
      taco = run_taco_unfactorized(*p, 1);
    } else {
      taco.note = "skipped";
    }
    table.add_row({strfmt("%.2g%%", sparsity * 100),
                   human_count(static_cast<double>(p->sparse.nnz())),
                   ours.cell(), taco.cell(), speedup_cell(taco, ours),
                   std::to_string(plan.tree.max_depth()),
                   std::to_string(plan.tree.max_buffer_dim()),
                   std::to_string(plan.paths_searched)});
    if (sparsity == 0.001) scaling_problem = std::move(p);
  }
  table.add_note("paper: 534x over TACO at N=40, 0.1% (unfactorized TTTc "
                 "pays the full rank^5 inner loop)");
  table.print(std::cout);

  // Strong-scaling table for the sparser instance.
  Table scaling("Section 7 — TTTc strong scaling (simulated ranks)");
  scaling.set_header({"ranks", "max-local[s]", "comm[s]", "model-comm[s]",
                      "total[s]", "speedup"});
  double t1 = 0;
  for (int r = 1; r <= *max_ranks; r *= 2) {
    DistSpttn dist(scaling_problem->bound, r);
    ShmemComm comm(r);
    const DistResult res = dist.run(comm, {}, nullptr, {});
    if (r == 1) t1 = res.time();
    scaling.add_row({std::to_string(r), strfmt("%.4f", res.max_local_seconds),
                     strfmt("%.5f", res.comm_seconds),
                     strfmt("%.5f", res.comm_model_seconds),
                     strfmt("%.4f", res.time()),
                     strfmt("%.2fx", t1 / res.time())});
  }
  scaling.add_note("paper: good scaling for both sparsities of the N=80 "
                   "tensor");
  scaling.print(std::cout);
  return 0;
}
