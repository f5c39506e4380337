// Section 7 TTMc results: single-thread order-3 and order-4 TTMc versus
// TACO (unfactorized), SparseLNR (partially fused) and CTF (pairwise).
// Paper: 29.3x/125.9x over TACO, 4x-110.5x over SparseLNR, 0.8x-12.6x over
// CTF; TACO/SparseLNR only run at all on two of the tensors. --json emits
// the run in the bench_serve/bench_kernels schema.
#include <fstream>

#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {

struct JsonRow {
  std::string table;
  std::string tensor;
  std::int64_t nnz = 0;
  double lowered_s = 0;
  double taco_s = 0;
  double lnr_s = 0;
};

void write_json(const std::string& path, std::int64_t rank,
                std::int64_t seed, const std::vector<JsonRow>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"bench_ttmc\",\n  \"unit\": \"s\",\n"
     << "  \"rank\": " << rank << ",\n  \"seed\": " << seed
     << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    const auto opt = [](double s) {
      return s > 0 ? strfmt("%.6f", s) : std::string("null");
    };
    os << "    {\"kernel\": \"" << r.table << "\", \"tensor\": \""
       << r.tensor << "\", \"nnz\": " << r.nnz
       << ", \"lowered_s\": " << opt(r.lowered_s)
       << ", \"taco_s\": " << opt(r.taco_s)
       << ", \"sparselnr_s\": " << opt(r.lnr_s) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_ttmc");
  const auto* rank = cli.add_int("rank", 16, "dense ranks R=S(=T)");
  const auto* scale = cli.add_double("scale", 0.002, "tensor scale");
  const auto* reps = cli.add_int("reps", 3, "timing repetitions");
  const auto* seed = cli.add_int("seed", 11, "generator seed");
  const std::string* json =
      cli.add_string("json", "", "also write results to this JSON file");
  cli.parse(argc, argv);

  std::vector<JsonRow> jrows;

  Table t3(strfmt("Section 7 — order-3 TTMc, R=S=%lld",
                  static_cast<long long>(*rank)));
  t3.set_header({"tensor", "nnz", "SpTTN[s]", "TACO[s]", "SparseLNR[s]",
                 "CTF[s]", "vs TACO", "vs SpLNR", "vs CTF"});
  for (const std::string& name :
       {std::string("nell-2"), std::string("vast-3d"), std::string("darpa"),
        std::string("synth3")}) {
    Rng rng(static_cast<std::uint64_t>(*seed) ^ hash_mix(name.size() * 7));
    CooTensor t = make_preset_tensor(name, *scale, rng);
    auto p = make_problem(ttmc3_expr(), std::move(t),
                          {{"r", *rank}, {"s", *rank}}, rng);
    const RunResult ours = run_spttn(*p, static_cast<int>(*reps));
    const RunResult taco = run_taco_unfactorized(*p, 1);
    const RunResult lnr = run_sparselnr(*p, 1);
    const RunResult ctf = run_ctf_pairwise(*p, 1);
    t3.add_row({name, human_count(static_cast<double>(p->sparse.nnz())),
                ours.cell(), taco.cell(), lnr.cell(), ctf.cell(),
                speedup_cell(taco, ours), speedup_cell(lnr, ours),
                speedup_cell(ctf, ours)});
    jrows.push_back({"ttmc3", name, p->sparse.nnz(), ours.seconds,
                     taco.seconds, lnr.seconds});
  }
  t3.add_note("paper: 29.3x (nell-2) and 125.9x (vast-3d) over TACO; "
              "110.5x and 4x over SparseLNR");
  t3.print(std::cout);

  Table t4(strfmt("Section 7 — order-4 TTMc (Figure 6 kernel), R=S=T=%lld",
                  static_cast<long long>(*rank)));
  t4.set_header({"tensor", "nnz", "SpTTN[s]", "TACO[s]", "SparseLNR[s]",
                 "vs TACO", "vs SpLNR", "maxdepth", "bufdim"});
  for (const std::string& name : {std::string("nips"), std::string("synth4")}) {
    Rng rng(static_cast<std::uint64_t>(*seed) ^ hash_mix(name.size() * 13));
    CooTensor t = make_preset_tensor(name, *scale, rng);
    if (t.order() != 4) continue;
    auto p = make_problem(ttmc4_expr(), std::move(t),
                          {{"r", *rank}, {"s", *rank}, {"t", *rank}}, rng);
    Plan plan;
    const RunResult ours = run_spttn(*p, static_cast<int>(*reps), {}, &plan);
    const RunResult taco = run_taco_unfactorized(*p, 1);
    const RunResult lnr = run_sparselnr(*p, 1);
    t4.add_row({name, human_count(static_cast<double>(p->sparse.nnz())),
                ours.cell(), taco.cell(), lnr.cell(), speedup_cell(taco, ours),
                speedup_cell(lnr, ours),
                std::to_string(plan.tree.max_depth()),
                std::to_string(plan.tree.max_buffer_dim())});
    jrows.push_back({"ttmc4", name, p->sparse.nnz(), ours.seconds,
                     taco.seconds, lnr.seconds});
  }
  t4.add_note("paper Fig. 6: SpTTN nest has depth 5 (SparseLNR: 6, "
              "intermediate L x R x S)");
  t4.print(std::cout);

  if (!json->empty()) write_json(*json, *rank, *seed, jrows);
  return 0;
}
