// Section 4 complexity results: search-space sizes (contraction paths and
// loop orders, with and without the CSF-order restriction), DP subproblem
// counts, and DP-vs-enumeration wall time. Demonstrates the
// O(N^3 2^m m) vs O((m!)^N) gap the paper's Algorithm 1 delivers.
//
// --cache switches to the amortized-planning table: an iterative driver
// (CP-ALS-style sweeps over the per-mode kernel family) planning through
// the KernelCache, showing per-iteration plan time collapsing to ~0 after
// the first sweep populates the cache.
#include <fstream>

#include "bench_common.hpp"
#include "core/enumerate.hpp"
#include "core/order_dp.hpp"
#include "serve/kernel_cache.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {

/// Amortized planning cost: sweeps of the order-3/4 kernel families, each
/// kernel planned per sweep — uncached (fresh search every time) vs through
/// a KernelCache (search only on the miss sweep).
int run_cache_mode(std::int64_t n, std::int64_t rank, std::uint64_t seed,
                   int sweeps, const std::string& json) {
  SPTTN_CHECK_MSG(sweeps >= 2,
                  "--sweeps must be >= 2 (sweep 1 populates the cache, "
                  "later sweeps measure the hits), got " << sweeps);
  struct Family {
    std::string name;
    std::vector<std::string> exprs;
    int order;
  };
  const std::vector<Family> families = {
      {"CP-ALS MTTKRP-3 family",
       {"M0(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)",
        "M1(j,r) = T(i,j,k)*U0(i,r)*U2(k,r)",
        "M2(k,r) = T(i,j,k)*U0(i,r)*U1(j,r)"},
       3},
      {"HOOI TTMc-3 family",
       {"Y0(i,a,b) = T(i,j,k)*U1(j,a)*U2(k,b)",
        "Y1(j,a,b) = T(i,j,k)*U0(i,a)*U2(k,b)",
        "Y2(k,a,b) = T(i,j,k)*U0(i,a)*U1(j,b)"},
       3},
      {"MTTKRP-4 family",
       {"M0(i,r) = T(i,j,k,l)*U1(j,r)*U2(k,r)*U3(l,r)",
        "M1(j,r) = T(i,j,k,l)*U0(i,r)*U2(k,r)*U3(l,r)"},
       4},
  };

  Table table("Amortized planning cost — KernelCache across sweeps");
  table.set_header({"kernel family", "kernels", "sweep1[ms]", "sweep2+[ms]",
                    "uncached/sweep[ms]", "speedup", "hits", "misses"});

  struct JsonRow {
    std::string family;
    std::size_t kernels = 0;
    double sweep1_ms = 0, rest_ms = 0, uncached_ms = 0;
    std::uint64_t hits = 0, misses = 0;
  };
  std::vector<JsonRow> json_rows;

  for (const auto& fam : families) {
    Rng rng(seed);
    std::vector<std::int64_t> dims(static_cast<std::size_t>(fam.order), n);
    CooTensor sparse = random_coo(dims, n * n / 2, rng);
    sparse.sort_dedup();
    const SparsityStats stats = SparsityStats::from_coo(sparse);

    // Bind every kernel of the family once (dims only; no CSF needed to
    // measure planning).
    std::vector<Kernel> kernels;
    std::vector<std::vector<DenseTensor>> owned(fam.exprs.size());
    for (std::size_t e = 0; e < fam.exprs.size(); ++e) {
      Kernel k = Kernel::parse(fam.exprs[e]);
      const auto dim_of = [&](int id) -> std::int64_t {
        const int lvl = k.csf_level(id);
        return lvl >= 0 ? sparse.dim(lvl) : rank;
      };
      std::vector<const DenseTensor*> ptrs;
      owned[e].reserve(static_cast<std::size_t>(k.num_inputs()));
      for (int i = 0; i < k.num_inputs(); ++i) {
        if (i == k.sparse_input()) continue;
        std::vector<std::int64_t> fdims;
        for (int id : k.input(i).idx) fdims.push_back(dim_of(id));
        owned[e].push_back(DenseTensor(fdims));
        ptrs.push_back(&owned[e].back());
      }
      kernels.push_back(
          bind_kernel_dims(fam.exprs[e], sparse, ptrs, nullptr));
    }

    // Uncached baseline: a fresh search for every kernel, every sweep.
    Timer uncached_t;
    for (int s = 0; s < sweeps; ++s) {
      for (const Kernel& k : kernels) (void)make_plan(k, stats);
    }
    const double uncached_per_sweep =
        uncached_t.millis() / static_cast<double>(sweeps);

    // Cached: sweep 1 misses (search runs), later sweeps hit.
    KernelCache cache;
    Timer sweep1_t;
    for (const Kernel& k : kernels) (void)cache.get_or_plan(k, stats);
    const double sweep1_ms = sweep1_t.millis();
    Timer rest_t;
    for (int s = 1; s < sweeps; ++s) {
      for (const Kernel& k : kernels) (void)cache.get_or_plan(k, stats);
    }
    const double rest_ms =
        rest_t.millis() / static_cast<double>(sweeps - 1);
    const auto counters = cache.counters();

    table.add_row(
        {fam.name, std::to_string(kernels.size()), strfmt("%.3f", sweep1_ms),
         strfmt("%.4f", rest_ms), strfmt("%.3f", uncached_per_sweep),
         rest_ms > 0 ? strfmt("%.0fx", uncached_per_sweep / rest_ms) : "inf",
         std::to_string(counters.hits), std::to_string(counters.misses)});
    json_rows.push_back({fam.name, kernels.size(), sweep1_ms, rest_ms,
                         uncached_per_sweep, counters.hits,
                         counters.misses});
  }
  table.add_note("sweep1 = misses populate the cache (full search); "
                 "sweep2+ = per-sweep cost served from cache");
  table.add_note("uncached = make_plan per kernel per sweep (what iterative "
                 "drivers paid before the serving layer)");
  table.print(std::cout);

  if (!json.empty()) {
    std::ofstream os(json);
    os << "{\n  \"bench\": \"bench_search\",\n  \"mode\": \"cache\",\n"
       << "  \"unit\": \"ms\",\n  \"n\": " << n << ",\n  \"sweeps\": "
       << sweeps << ",\n  \"families\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const JsonRow& r = json_rows[i];
      os << "    {\"family\": \"" << r.family << "\", \"kernels\": "
         << r.kernels << ", \"sweep1_ms\": " << strfmt("%.4f", r.sweep1_ms)
         << ", \"rest_ms\": " << strfmt("%.4f", r.rest_ms)
         << ", \"uncached_ms\": " << strfmt("%.4f", r.uncached_ms)
         << ", \"hits\": " << r.hits << ", \"misses\": " << r.misses << "}"
         << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << json << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_search");
  const auto* n = cli.add_int("n", 64, "sparse mode size for the stats");
  const auto* rank = cli.add_int("rank", 8, "dense rank");
  const auto* seed = cli.add_int("seed", 19, "generator seed");
  const auto* cache = cli.add_bool("cache", false,
                                   "measure amortized planning cost "
                                   "through the KernelCache");
  const auto* sweeps = cli.add_int("sweeps", 16, "iterations for --cache");
  const std::string* json =
      cli.add_string("json", "BENCH_search.json",
                     "output path for machine-readable rows ('' = skip)");
  cli.parse(argc, argv);

  if (*cache) {
    return run_cache_mode(*n, *rank, static_cast<std::uint64_t>(*seed),
                          static_cast<int>(*sweeps), *json);
  }

  struct Case {
    std::string name;
    std::string expr;
    int order;
  };
  const std::vector<Case> cases = {
      {"MTTKRP-3", mttkrp3_expr(), 3},
      {"TTMc-3", ttmc3_expr(), 3},
      {"TTTP-3", tttp3_expr(), 3},
      {"all-mode TTMc-3", allmode_ttmc3_expr(), 3},
      {"MTTKRP-4", mttkrp4_expr(), 4},
      {"TTMc-4", ttmc4_expr(), 4},
  };

  Table table("Section 4 — search-space sizes and Algorithm 1 cost");
  table.set_header({"kernel", "paths", "exec paths", "orders(best path)",
                    "orders(CSF)", "DP subprobs", "DP evals", "DP[ms]",
                    "enum[ms]", "agree"});

  struct JsonRow {
    std::string kernel;
    int paths = 0;
    std::size_t exec_paths = 0;
    double orders_csf = 0;
    std::int64_t dp_subproblems = 0, dp_evaluations = 0;
    double dp_ms = 0, enum_ms = 0;
    std::string agree;
  };
  std::vector<JsonRow> json_rows;

  // Unbudgeted-vs-budgeted comparison: the same kernel planned by the
  // exact search and under a node budget that stops it on the 4-input
  // kernels (shows what the budget costs in plan quality and what gap it
  // reports).
  constexpr std::int64_t kBudgetNodes = 12;
  struct BudgetRow {
    std::string kernel;
    std::string budget;  ///< "nodes=<N>"
    double cost_ratio = 0;  ///< budgeted plan flops / unbudgeted plan flops
    std::int64_t nodes_expanded = 0;
    double gap = 0;
    bool exhausted = false;
    double unbudgeted_plan_s = 0, budgeted_plan_s = 0;
  };
  std::vector<BudgetRow> budget_rows;

  for (const auto& c : cases) {
    Rng rng(static_cast<std::uint64_t>(*seed));
    std::vector<std::int64_t> dims(static_cast<std::size_t>(c.order), *n);
    CooTensor t = random_coo(dims, *n * *n / 2, rng);
    std::vector<std::pair<std::string, std::int64_t>> dense_dims;
    for (const char* idx : {"r", "s", "t", "u", "a"}) {
      dense_dims.emplace_back(idx, *rank);
    }
    auto p = make_problem(c.expr, std::move(t), dense_dims, rng);
    const Kernel& kernel = p->kernel();

    int total = 0;
    const auto exec_paths = executable_paths(kernel, p->bound.stats, &total);
    const ContractionPath& best = exec_paths.front();
    const double orders_free = count_orders(kernel, best, false);
    const double orders_csf = count_orders(kernel, best, true);

    const BoundedBufferBlasCost cost(2, 1, &p->bound.stats, true);
    Timer dp_timer;
    const DpResult dp = optimal_order(kernel, best, cost);
    const double dp_ms = dp_timer.millis();

    // Enumerate the same space (CSF-restricted), capped to keep the bench
    // bounded; "agree" checks the DP matched the enumerated minimum when
    // the full space was visited.
    EnumerateOptions eopts;
    eopts.limit = 2000000;
    Timer enum_timer;
    const EnumerationSearchResult brute =
        search_orders(kernel, best, cost, eopts);
    const double enum_ms = enum_timer.millis();
    const bool complete =
        static_cast<double>(brute.visited) >= orders_csf;
    std::string agree = "capped";
    if (complete) {
      agree = (dp.feasible == brute.feasible &&
               (!dp.feasible || dp.best_cost == brute.best_cost))
                  ? "yes"
                  : "NO";
    }

    table.add_row({c.name, std::to_string(total),
                   std::to_string(exec_paths.size()),
                   human_count(orders_free), human_count(orders_csf),
                   std::to_string(dp.subproblems),
                   std::to_string(dp.evaluations), strfmt("%.2f", dp_ms),
                   strfmt("%.2f", enum_ms), agree});
    json_rows.push_back({c.name, total, exec_paths.size(), orders_csf,
                         static_cast<std::int64_t>(dp.subproblems),
                         static_cast<std::int64_t>(dp.evaluations), dp_ms,
                         enum_ms, agree});

    // Budget comparison on the same kernel + stats. The budgeted
    // wall-clock includes the verifier pass budgeted plans always pay.
    Timer exact_t;
    const Plan exact_plan = make_plan(kernel, p->bound.stats);
    const double exact_s = exact_t.millis() / 1000.0;
    PlannerOptions budgeted;
    budgeted.budget.max_nodes = kBudgetNodes;
    Timer budget_t;
    const Plan budget_plan = make_plan(kernel, p->bound.stats, budgeted);
    const double budget_s = budget_t.millis() / 1000.0;
    budget_rows.push_back(
        {c.name, strfmt("nodes=%lld", static_cast<long long>(kBudgetNodes)),
         exact_plan.flops > 0 ? budget_plan.flops / exact_plan.flops : 1.0,
         budget_plan.nodes_expanded, budget_plan.optimality_gap,
         budget_plan.budget_exhausted, exact_s, budget_s});
  }
  table.add_note("upper bound on paths: n!(n-1)!/2^(n-1) (Section 4.1.1); "
                 "orders per path: prod |I_i|! (/k_i! with CSF order)");
  table.add_note("DP: O(N^2 2^m) subproblems, O(Nm) work each "
                 "(Section 4.2)");
  table.print(std::cout);

  Table cmp("Path search: unbudgeted vs node-budgeted");
  cmp.set_header({"kernel", "budget", "cost ratio", "nodes", "gap",
                  "exhausted", "unbudgeted[s]", "budgeted[s]"});
  for (const BudgetRow& r : budget_rows) {
    cmp.add_row({r.kernel, r.budget, strfmt("%.4f", r.cost_ratio),
                 std::to_string(r.nodes_expanded), strfmt("%.4f", r.gap),
                 r.exhausted ? "yes" : "no",
                 strfmt("%.4f", r.unbudgeted_plan_s),
                 strfmt("%.4f", r.budgeted_plan_s)});
  }
  cmp.add_note("cost ratio = budgeted plan flops / unbudgeted plan flops "
               "(1.0000 = the exact choice's flops)");
  cmp.add_note("gap = proven bound: best_flops/flops_lower_bound - 1; "
               "0 when the budget did not stop the search");
  cmp.print(std::cout);

  if (!json->empty()) {
    std::ofstream os(*json);
    os << "{\n  \"bench\": \"bench_search\",\n  \"mode\": \"search-space\","
       << "\n  \"unit\": \"ms\",\n  \"n\": " << *n << ",\n  \"rank\": "
       << *rank << ",\n  \"seed\": " << *seed << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const JsonRow& r = json_rows[i];
      os << "    {\"kernel\": \"" << r.kernel << "\", \"paths\": " << r.paths
         << ", \"exec_paths\": " << r.exec_paths << ", \"orders_csf\": "
         << strfmt("%.0f", r.orders_csf) << ", \"dp_subproblems\": "
         << r.dp_subproblems << ", \"dp_evaluations\": " << r.dp_evaluations
         << ", \"dp_ms\": " << strfmt("%.3f", r.dp_ms) << ", \"enum_ms\": "
         << strfmt("%.3f", r.enum_ms) << ", \"agree\": \"" << r.agree
         << "\"}" << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"budgeted\": [\n";
    for (std::size_t i = 0; i < budget_rows.size(); ++i) {
      const BudgetRow& r = budget_rows[i];
      os << "    {\"kernel\": \"" << r.kernel << "\", \"budget\": \""
         << r.budget << "\", \"cost_ratio\": " << strfmt("%.6f", r.cost_ratio)
         << ", \"nodes_expanded\": " << r.nodes_expanded << ", \"gap\": "
         << strfmt("%.6f", r.gap) << ", \"budget_exhausted\": "
         << (r.exhausted ? "true" : "false") << ", \"unbudgeted_plan_s\": "
         << strfmt("%.6f", r.unbudgeted_plan_s) << ", \"budgeted_plan_s\": "
         << strfmt("%.6f", r.budgeted_plan_s) << "}"
         << (i + 1 < budget_rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << *json << "\n";
  }
  return 0;
}
