#include "core/planner.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/plan_verifier.hpp"
#include "core/planner_strategy.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spttn {

std::string Plan::describe(const Kernel& kernel) const {
  std::ostringstream os;
  os << "kernel: " << kernel.to_string() << "\n";
  os << "path:   " << path.to_string(kernel) << "\n";
  os << "order:  " << order_to_string(kernel, order) << "\n";
  os << "cost:   " << cost.to_string() << "  flops~" << flops << "\n";
  os << "bufdim: " << tree.max_buffer_dim()
     << "  bufsize: " << tree.max_buffer_size()
     << "  depth: " << tree.max_depth() << "\n";
  if (strategy == StrategyKind::kAnytime) {
    os << "anytime: nodes " << nodes_expanded << "  restarts " << restarts
       << "  gap " << optimality_gap
       << (budget_exhausted ? "  (budget exhausted)" : "") << "\n";
  }
  os << "nest:\n" << tree.render(kernel, path);
  return os.str();
}

std::unique_ptr<TreeCost> make_cost_model(const PlannerOptions& options,
                                          const SparsityStats* stats) {
  switch (options.cost) {
    case CostKind::kMaxBufferDim:
      return std::make_unique<MaxBufferDimCost>();
    case CostKind::kMaxBufferSize:
      return std::make_unique<MaxBufferSizeCost>();
    case CostKind::kCacheMiss:
      return std::make_unique<CacheMissCost>(kCacheD, stats,
                                             options.sparse_aware_cache);
    case CostKind::kBoundedBufferBlas:
      return std::make_unique<BoundedBufferBlasCost>(
          options.buffer_dim_bound, kCacheD, stats,
          options.sparse_aware_cache);
  }
  SPTTN_CHECK(false);
  return nullptr;
}

std::vector<ContractionPath> executable_paths(const Kernel& kernel,
                                              const SparsityStats& stats,
                                              int* total_paths,
                                              std::vector<double>* flops_out) {
  std::vector<ContractionPath> all = enumerate_paths(kernel);
  if (total_paths != nullptr) *total_paths = static_cast<int>(all.size());
  // Executability and FLOP estimation are independent per path, so they
  // fan out over the process pool; the gather below walks paths in
  // enumeration order and the sort uses the precomputed keys, making the
  // result identical to the sequential filter regardless of lane count.
  std::vector<char> keep(all.size(), 0);
  std::vector<double> flops(all.size(), 0.0);
  ThreadPool::global().parallel_apply(
      static_cast<std::int64_t>(all.size()), [&](std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        keep[u] = all[u].csf_prefix_executable(kernel) ? 1 : 0;
        if (keep[u]) flops[u] = path_flops(kernel, all[u], stats);
      });
  std::vector<std::size_t> order;
  order.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (keep[i]) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flops[a] < flops[b];
                   });
  std::vector<ContractionPath> exec;
  exec.reserve(order.size());
  if (flops_out != nullptr) {
    flops_out->clear();
    flops_out->reserve(order.size());
  }
  for (std::size_t i : order) {
    exec.push_back(std::move(all[i]));
    if (flops_out != nullptr) flops_out->push_back(flops[i]);
  }
  return exec;
}

namespace {

/// Merge the DP results of paths [begin, end), one group, in path order:
/// the first path with the group's lowest cost wins. Adds the group's
/// search counts to `plan`; returns true, with plan's path, order and cost
/// filled, when the group has a feasible nest.
bool merge_group(const std::vector<ContractionPath>& paths,
                 const std::vector<DpResult>& results, std::size_t begin,
                 std::size_t end, Plan* plan) {
  bool found = false;
  for (std::size_t i = begin; i < end; ++i) {
    const DpResult& r = results[i];
    plan->paths_searched += 1;
    plan->dp_subproblems += r.subproblems;
    plan->dp_evaluations += r.evaluations;
    if (!r.feasible) continue;
    plan->paths_feasible += 1;
    if (!found || r.best_cost < plan->cost) {
      plan->path = paths[i];
      plan->order = r.best;
      plan->cost = r.best_cost;
      found = true;
    }
  }
  return found;
}

}  // namespace

Plan select_nest(const Kernel& kernel, const SparsityStats& stats,
                 const PlannerOptions& options,
                 const std::vector<ContractionPath>& paths,
                 const std::vector<double>& flops) {
  SPTTN_CHECK_MSG(!paths.empty(),
                  "no single-CSF executable contraction path for kernel "
                      << kernel.to_string());
  const std::size_t searched =
      std::min(paths.size(), static_cast<std::size_t>(kMaxPathsSearched));
  // Group g holds paths [starts[g], starts[g + 1]): a path joins the open
  // group while its flops stay within the tolerance of the group's first.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < searched; ++i) {
    if (starts.empty() ||
        flops[i] > flops[starts.back()] * kFlopGroupTolerance) {
      starts.push_back(i);
    }
  }
  const std::size_t groups = starts.size();
  starts.push_back(searched);

  // Wave 1 holds only the optimal-complexity group, so the common case
  // does exactly the sequential scan's work; later waves buy parallelism
  // with bounded speculation (at most the winning wave's trailing groups,
  // whose counts the merge never adds).
  DpOptions dp_options;
  dp_options.restrict_csf_order = options.restrict_csf_order;
  std::vector<DpResult> results(searched);
  PlannerOptions effective = options;
  const int max_bound = std::max(options.buffer_dim_bound,
                                 kernel.num_indices());
  Plan plan;
  for (int bound = options.buffer_dim_bound; bound <= max_bound; ++bound) {
    effective.buffer_dim_bound = bound;
    const std::unique_ptr<TreeCost> cost = make_cost_model(effective, &stats);
    std::size_t g = 0;
    std::size_t wave = 1;
    while (g < groups) {
      const std::size_t wave_end = std::min(groups, g + wave);
      const std::size_t lo = starts[g];
      ThreadPool::global().parallel_apply(
          static_cast<std::int64_t>(starts[wave_end] - lo),
          [&](std::int64_t i) {
            const std::size_t p = lo + static_cast<std::size_t>(i);
            results[p] = optimal_order(kernel, paths[p], *cost, dp_options);
          });
      for (; g < wave_end; ++g) {
        if (merge_group(paths, results, starts[g], starts[g + 1], &plan)) {
          plan.flops = path_flops(kernel, plan.path, stats);
          plan.buffer_dim_bound = bound;
          plan.sparsity_fingerprint = stats.fingerprint();
          plan.tree = LoopTree::build(kernel, plan.path, plan.order);
          return plan;
        }
      }
      // A one-lane pool runs a wave inline, where speculation would only
      // add DP work.
      if (ThreadPool::global().size() > 1) wave *= 2;
    }
    if (!options.allow_bound_relaxation ||
        options.cost != CostKind::kBoundedBufferBlas) {
      break;
    }
  }
  SPTTN_CHECK_MSG(false, "no feasible loop nest found for kernel "
                             << kernel.to_string());
  return plan;
}

Plan make_plan(const Kernel& kernel, const SparsityStats& stats,
               const PlannerOptions& options) {
  SPTTN_CHECK_MSG(kernel.dims_bound(),
                  "bind index dimensions before planning");
  Plan plan;
  switch (options.strategy) {
    case StrategyKind::kExact: {
      int total = 0;
      std::vector<double> flops;
      const std::vector<ContractionPath> paths =
          executable_paths(kernel, stats, &total, &flops);
      plan = select_nest(kernel, stats, options, paths, flops);
      plan.paths_total = total;
      plan.paths_executable = static_cast<int>(paths.size());
      break;
    }
    case StrategyKind::kAnytime:
      plan = plan_anytime(kernel, stats, options);
      break;
  }
  // One verification gate for both path sources: always in Debug, opt-in
  // via options.verify in Release, and unconditionally for anytime plans —
  // the static verifier is what makes a non-exhaustive search safe to
  // serve.
#ifndef NDEBUG
  verify_plan_or_throw(kernel, plan, options, &stats);
#else
  if (options.verify || options.strategy == StrategyKind::kAnytime) {
    verify_plan_or_throw(kernel, plan, options, &stats);
  }
#endif
  return plan;
}

}  // namespace spttn
