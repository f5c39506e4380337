// Figure 7: single-thread MTTKRP (R = 64) across the paper's tensors,
// comparing SpTTN-Cyclops against TACO (unfactorized), SparseLNR
// (partially fused), CTF (pairwise with materialized intermediates) and
// SPLATT (hand-tuned CSF MTTKRP).
//
// Tensors are the FROSTT/DARPA stand-ins of tensor/generate.cpp at a
// laptop-friendly scale (see tensor_presets() in tensor/generate.hpp);
// --scale raises fidelity toward the published sizes.
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

int main(int argc, char** argv) {
  Cli cli("bench_fig7_mttkrp");
  const auto* rank = cli.add_int("rank", 64, "factor rank R (paper: 64)");
  const auto* scale =
      cli.add_double("scale", 0.002, "tensor scale vs published size");
  const auto* reps = cli.add_int("reps", 3, "timing repetitions (median)");
  const auto* seed = cli.add_int("seed", 1, "generator seed");
  cli.parse(argc, argv);

  Table table("Figure 7 — single-thread MTTKRP, R=" + std::to_string(*rank));
  table.set_header({"tensor", "order", "nnz", "SpTTN[s]", "TACO[s]",
                    "SparseLNR[s]", "CTF[s]", "SPLATT[s]", "vs TACO",
                    "vs SpLNR", "vs CTF", "vs SPLATT"});

  const std::vector<std::string> tensors = {"nell-2", "nips", "enron",
                                            "vast-3d", "darpa"};
  for (const auto& name : tensors) {
    Rng rng(static_cast<std::uint64_t>(*seed) ^ hash_mix(name.size()));
    CooTensor t = make_preset_tensor(name, *scale, rng);
    const int order = t.order();
    const std::string expr = order == 3 ? mttkrp3_expr() : mttkrp4_expr();
    std::vector<std::pair<std::string, std::int64_t>> dims{{"r", *rank}};
    auto p = make_problem(expr, std::move(t), dims, rng);

    const RunResult ours = run_spttn(*p, static_cast<int>(*reps));
    const RunResult taco = run_taco_unfactorized(*p, static_cast<int>(*reps));
    const RunResult lnr = run_sparselnr(*p, static_cast<int>(*reps));
    const RunResult ctf = run_ctf_pairwise(*p, 1);
    const RunResult splatt = run_splatt(*p, static_cast<int>(*reps));

    table.add_row({name, std::to_string(order),
                   human_count(static_cast<double>(p->sparse.nnz())),
                   ours.cell(), taco.cell(), lnr.cell(), ctf.cell(),
                   splatt.cell(), speedup_cell(taco, ours),
                   speedup_cell(lnr, ours), speedup_cell(ctf, ours),
                   speedup_cell(splatt, ours)});
  }
  table.add_note("paper: SpTTN-Cyclops 1.3-3.4x over TACO; 0.7-1.7x vs "
                 "SPLATT; CTF orders of magnitude slower");
  table.add_note(strfmt("tensors scaled to %.3g of published nnz; shapes "
                        "(who wins) are the reproduction target",
                        *scale));
  table.print(std::cout);
  return 0;
}
