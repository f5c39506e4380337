// Ablations over the executor's and planner's main design choices:
//  (a) inner-kernel offload (BLAS hooks) on vs off,
//  (b) sparse-aware vs dense-dims cache model inside the planner,
//  (c) CSF-order restriction on vs off (search-space and plan quality),
//  (d) cost-model choice (buffer-size vs cache vs the paper's bounded-
//      buffer/BLAS metric).
#include "bench_common.hpp"
#include "core/enumerate.hpp"
#include "core/order_dp.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {

double run_order(const Problem& p, const ContractionPath& path,
                 const LoopOrder& order, bool collapse, int reps) {
  FusedExecutor exec(p.kernel(), path, order, collapse);
  Output o = Output::make(p);
  ExecArgs args;
  args.sparse = &p.bound.csf;
  args.dense = p.bound.dense;
  args.out_dense = o.sparse_vals.empty() ? &o.dense : nullptr;
  args.out_sparse = o.sparse_vals;
  return time_median([&] { exec.execute(args); }, reps);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_ablation");
  const auto* rank = cli.add_int("rank", 32, "dense rank");
  const auto* scale = cli.add_double("scale", 0.002, "tensor scale");
  const auto* reps = cli.add_int("reps", 3, "timing repetitions");
  const auto* seed = cli.add_int("seed", 23, "generator seed");
  cli.parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(*seed));

  // (a) offload on/off across kernels, on a nell-2-like tensor.
  {
    Table table("Ablation (a) — inner dense-kernel offload");
    table.set_header({"kernel", "offload on[s]", "offload off[s]", "benefit"});
    const std::vector<std::pair<std::string, std::string>> kernels = {
        {"MTTKRP-3", mttkrp3_expr()},
        {"TTMc-3", ttmc3_expr()},
        {"TTTP-3", tttp3_expr()},
    };
    for (const auto& [name, expr] : kernels) {
      CooTensor t = make_preset_tensor("nell-2", *scale, rng);
      auto p = make_problem(expr, std::move(t),
                            {{"r", *rank}, {"s", *rank}}, rng);
      const Plan plan = plan_kernel(p->bound);
      const double on =
          run_order(*p, plan.path, plan.order, true, static_cast<int>(*reps));
      const double off =
          run_order(*p, plan.path, plan.order, false, static_cast<int>(*reps));
      RunResult ron;
      ron.ok = true;
      ron.seconds = on;
      RunResult roff;
      roff.ok = true;
      roff.seconds = off;
      table.add_row({name, ron.cell(), roff.cell(), speedup_cell(roff, ron)});
    }
    table.print(std::cout);
  }

  // (b) sparse-aware vs dense cache model in the planner.
  {
    Table table("Ablation (b) — sparse-aware vs dense-dims cache model");
    table.set_header({"kernel", "sparse-aware[s]", "dense-dims[s]",
                      "same plan?"});
    for (const auto& [name, expr] :
         std::vector<std::pair<std::string, std::string>>{
             {"TTMc-3", ttmc3_expr()},
             {"all-mode TTMc-3", allmode_ttmc3_expr()}}) {
      CooTensor t = make_preset_tensor("nell-2", *scale, rng);
      auto p = make_problem(expr, std::move(t),
                            {{"r", *rank}, {"s", *rank}, {"u", *rank}}, rng);
      PlannerOptions aware;
      aware.sparse_aware_cache = true;
      PlannerOptions dense;
      dense.sparse_aware_cache = false;
      Plan plan_a;
      Plan plan_d;
      const RunResult ra = run_spttn(*p, static_cast<int>(*reps), aware,
                                     &plan_a);
      const RunResult rd = run_spttn(*p, static_cast<int>(*reps), dense,
                                     &plan_d);
      table.add_row({name, ra.cell(), rd.cell(),
                     plan_a.order == plan_d.order ? "yes" : "no"});
    }
    table.print(std::cout);
  }

  // (c) CSF-order restriction: search effort and plan quality.
  {
    Table table("Ablation (c) — CSF-order restriction in the DP");
    table.set_header({"kernel", "restricted evals", "free evals",
                      "restricted[s]", "free[s]"});
    for (const auto& [name, expr] :
         std::vector<std::pair<std::string, std::string>>{
             {"MTTKRP-3", mttkrp3_expr()}, {"TTMc-3", ttmc3_expr()}}) {
      CooTensor t = make_preset_tensor("nell-2", *scale, rng);
      auto p = make_problem(expr, std::move(t),
                            {{"r", *rank}, {"s", *rank}}, rng);
      const auto paths = executable_paths(p->kernel(), p->bound.stats);
      const BoundedBufferBlasCost cost(2, 1, &p->bound.stats, true);
      DpOptions restricted;
      restricted.restrict_csf_order = true;
      DpOptions free_opts;
      free_opts.restrict_csf_order = false;
      const DpResult r = optimal_order(p->kernel(), paths[0], cost,
                                       restricted);
      const DpResult f = optimal_order(p->kernel(), paths[0], cost,
                                       free_opts);
      const double tr = run_order(*p, paths[0], r.best, true,
                                  static_cast<int>(*reps));
      // The free-search order may violate the CSF iteration constraint of
      // the sparse term; only run it when buildable.
      std::string tf = "n/a";
      try {
        tf = strfmt("%.4f", run_order(*p, paths[0], f.best, true,
                                      static_cast<int>(*reps)));
      } catch (const Error&) {
      }
      table.add_row({name, std::to_string(r.evaluations),
                     std::to_string(f.evaluations), strfmt("%.4f", tr), tf});
    }
    table.print(std::cout);
  }

  // (d) cost-model choice.
  {
    Table table("Ablation (d) — planner cost model");
    table.set_header({"kernel", "bounded-blas[s]", "buffer-size[s]",
                      "cache-miss[s]"});
    for (const auto& [name, expr] :
         std::vector<std::pair<std::string, std::string>>{
             {"MTTKRP-3", mttkrp3_expr()},
             {"TTMc-3", ttmc3_expr()},
             {"all-mode TTMc-3", allmode_ttmc3_expr()}}) {
      CooTensor t = make_preset_tensor("nell-2", *scale, rng);
      auto p = make_problem(expr, std::move(t),
                            {{"r", *rank}, {"s", *rank}, {"u", *rank}}, rng);
      std::vector<std::string> row{name};
      for (CostKind kind : {CostKind::kBoundedBufferBlas,
                            CostKind::kMaxBufferSize, CostKind::kCacheMiss}) {
        PlannerOptions opts;
        opts.cost = kind;
        const RunResult r = run_spttn(*p, static_cast<int>(*reps), opts);
        row.push_back(r.cell());
      }
      table.add_row(row);
    }
    table.add_note("the bounded-buffer+BLAS metric is the paper's "
                   "experiment configuration (Section 5)");
    table.print(std::cout);
  }
  return 0;
}
