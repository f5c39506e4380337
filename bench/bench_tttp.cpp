// Section 7 TTTP results: SpTTN-Cyclops vs CTF-style pairwise contraction
// (paper: over 340x single-node speedup) and vs the unfactorized schedule
// (TTTP is one of the kernels where unfactorized is near-optimal, so the
// gap there should be small).
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

int main(int argc, char** argv) {
  Cli cli("bench_tttp");
  const auto* rank = cli.add_int("rank", 32, "CP rank R (paper: 32)");
  const auto* n = cli.add_int("n", 256, "mode size");
  const auto* sparsity = cli.add_double("sparsity", 0.001, "nnz fraction");
  const auto* reps = cli.add_int("reps", 3, "timing repetitions");
  const auto* seed = cli.add_int("seed", 13, "generator seed");
  cli.parse(argc, argv);

  Table table(strfmt("Section 7 — TTTP (SDDMM generalization), R=%lld",
                     static_cast<long long>(*rank)));
  table.set_header({"tensor", "nnz", "SpTTN[s]", "TACO[s]", "CTF[s]",
                    "vs TACO", "vs CTF", "peak CTF entries"});

  const auto run_one = [&](const std::string& label, CooTensor t) {
    Rng rng(static_cast<std::uint64_t>(*seed));
    auto p = make_problem(tttp3_expr(), std::move(t), {{"r", *rank}}, rng);
    const RunResult ours = run_spttn(*p, static_cast<int>(*reps));
    const RunResult taco = run_taco_unfactorized(*p, static_cast<int>(*reps));
    // Run pairwise once, also capturing its intermediate growth.
    RunResult ctf;
    PairwiseStats st;
    try {
      const ContractionPath path = pairwise_best_path(p->kernel(), p->sparse);
      Output o = Output::make(*p);
      Timer timer;
      st = pairwise_execute(p->kernel(), path, p->sparse, p->bound.dense,
                            nullptr, o.sparse_vals,
                            /*max_entries=*/1ll << 25);
      ctf.seconds = timer.seconds();
      ctf.ok = true;
    } catch (const Error&) {
      ctf.note = "OOM";
    }
    table.add_row({label, human_count(static_cast<double>(p->sparse.nnz())),
                   ours.cell(), taco.cell(), ctf.cell(),
                   speedup_cell(taco, ours), speedup_cell(ctf, ours),
                   human_count(static_cast<double>(
                       st.peak_intermediate_entries))});
  };

  Rng gen(static_cast<std::uint64_t>(*seed));
  const auto nnz = static_cast<std::int64_t>(
      static_cast<double>(*n) * static_cast<double>(*n) *
      static_cast<double>(*n) * *sparsity);
  run_one(strfmt("uniform N=%lld", static_cast<long long>(*n)),
          random_coo({*n, *n, *n}, nnz, gen));
  run_one("nell-2 (scaled)", make_preset_tensor("nell-2", 0.002, gen));
  run_one("vast-3d (scaled)", make_preset_tensor("vast-3d", 0.002, gen));

  table.add_note("paper: over 340x vs CTF on a single node; the pairwise "
                 "path materializes nnz x R intermediates");
  table.print(std::cout);
  return 0;
}
