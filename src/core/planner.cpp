#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "analysis/plan_verifier.hpp"
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
  os << "search: nodes " << nodes_expanded << "  paths searched "
     << paths_searched << "  gap " << optimality_gap
     << (budget_exhausted ? "  (budget exhausted)" : "") << "\n";
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

namespace {

/// A complete path the search holds.
struct FoundPath {
  double flops = 0;
  /// The pair each term contracts, ranked in the (a < b) order
  /// enumerate_paths walks, so comparing keys compares enumeration order.
  std::vector<int> key;
  ContractionPath path;
};

/// (flops, enumeration order), the order executable_paths returns.
bool cheaper(const FoundPath& x, const FoundPath& y) {
  return x.flops != y.flops ? x.flops < y.flops : x.key < y.key;
}

struct SearchResult {
  std::vector<ContractionPath> paths;  ///< held paths, cheapest first
  std::vector<double> flops;           ///< their FLOP estimates
  std::int64_t reached = 0;  ///< complete executable paths reached
  std::int64_t nodes = 0;    ///< partial paths expanded
  bool exhausted = false;    ///< the node budget stopped the search
  double lower_bound = 0;    ///< Plan::flops_lower_bound
};

/// The one path source: depth-first over the pair sequences contract_pair
/// builds, each prefix's children visited cheapest first. A child is
/// dropped when its term breaks the single-CSF rule (no completion is
/// executable), or when its partial FLOP estimate exceeds the limit: a
/// positive `tolerance` times the cheapest complete path so far, or, once
/// `cap` paths are held, the costliest held path. Term flops are
/// non-negative and summed in term order, so a completion costs at least
/// its prefix, bit for bit as path_flops sums it: a dropped prefix has no
/// completion in the cheapest flop group, or among the `cap` cheapest
/// paths. A positive `max_nodes` stops the search once that many prefixes
/// are expanded and a complete path is held.
class PathSearch {
 public:
  PathSearch(const Kernel& kernel, const SparsityStats& stats,
             double tolerance, std::size_t cap, std::int64_t max_nodes)
      : kernel_(kernel),
        stats_(stats),
        tolerance_(tolerance),
        cap_(cap),
        max_nodes_(max_nodes) {}

  SearchResult run() {
    if (kernel_.num_inputs() >= 2) expand(input_items(kernel_), 0.0);
    std::sort_heap(held_.begin(), held_.end(), cheaper);
    SearchResult r;
    for (FoundPath& f : held_) {
      r.paths.push_back(std::move(f.path));
      r.flops.push_back(f.flops);
    }
    r.reached = reached_;
    r.nodes = nodes_;
    r.exhausted = exhausted_;
    if (!held_.empty()) r.lower_bound = std::min(best_, unexpanded_);
    return r;
  }

 private:
  /// A prefix whose partial flops exceed this is dropped.
  double limit() const {
    double limit = std::numeric_limits<double>::infinity();
    if (tolerance_ > 0) limit = best_ * tolerance_;
    if (held_.size() == cap_) limit = std::min(limit, held_.front().flops);
    return limit;
  }

  void expand(const std::vector<PathItem>& items, double flops) {
    if (max_nodes_ > 0 && nodes_ >= max_nodes_ && !held_.empty()) {
      exhausted_ = true;
      unexpanded_ = std::min(unexpanded_, flops);
      return;
    }
    ++nodes_;
    struct Child {
      double flops;
      int rank;
      std::size_t a, b;
    };
    std::vector<Child> children;
    int rank = 0;
    for (std::size_t a = 0; a < items.size(); ++a) {
      for (std::size_t b = a + 1; b < items.size(); ++b, ++rank) {
        const PathTerm term = contract_pair(kernel_, items, a, b);
        if (!term_csf_prefix_executable(kernel_, term)) continue;
        children.push_back(
            {flops + term_flops(kernel_, term, stats_), rank, a, b});
      }
    }
    std::stable_sort(children.begin(), children.end(),
                     [](const Child& x, const Child& y) {
                       return x.flops < y.flops;
                     });
    std::vector<PathItem> rest;
    for (const Child& c : children) {
      // Children are sorted and the limit only falls.
      if (c.flops > limit()) break;
      path_.terms.push_back(contract_pair(kernel_, items, c.a, c.b, &rest));
      key_.push_back(c.rank);
      if (rest.size() == 1) {
        hold(c.flops);
      } else if (exhausted_) {
        unexpanded_ = std::min(unexpanded_, c.flops);
      } else {
        expand(rest, c.flops);
      }
      key_.pop_back();
      path_.terms.pop_back();
    }
  }

  /// Hold the complete path_ in a max-heap on cheaper(), so the costliest
  /// held path is on top and leaves first when the cap overflows.
  void hold(double flops) {
    ++reached_;
    best_ = std::min(best_, flops);
    held_.push_back({flops, key_, path_});
    std::push_heap(held_.begin(), held_.end(), cheaper);
    if (held_.size() > cap_) {
      std::pop_heap(held_.begin(), held_.end(), cheaper);
      held_.pop_back();
    }
  }

  const Kernel& kernel_;
  const SparsityStats& stats_;
  const double tolerance_;
  const std::size_t cap_;
  const std::int64_t max_nodes_;
  ContractionPath path_;  ///< the prefix being expanded
  std::vector<int> key_;  ///< its pair ranks
  std::vector<FoundPath> held_;
  double best_ = std::numeric_limits<double>::infinity();
  double unexpanded_ = std::numeric_limits<double>::infinity();
  std::int64_t reached_ = 0;
  std::int64_t nodes_ = 0;
  bool exhausted_ = false;
};

/// One past the last path of the flop group that starts at path `begin`: a
/// path joins the group while its flops stay within kFlopGroupTolerance of
/// the group's first path.
std::size_t group_end(const std::vector<double>& flops, std::size_t begin) {
  std::size_t end = begin + 1;
  while (end < flops.size() &&
         flops[end] <= flops[begin] * kFlopGroupTolerance) {
    ++end;
  }
  return end;
}

/// Algorithm 1 under `cost` on the paths `ids` names, in one fan-out on the
/// process pool. Results come back in `ids` order and their DP counts are
/// added to `plan`, so the Plan is the same on any lane count.
std::vector<DpResult> run_dps(const Kernel& kernel,
                              const std::vector<ContractionPath>& paths,
                              const std::vector<std::size_t>& ids,
                              const TreeCost& cost,
                              const PlannerOptions& options, Plan* plan) {
  DpOptions dp_options;
  dp_options.restrict_csf_order = options.restrict_csf_order;
  std::vector<DpResult> results(ids.size());
  ThreadPool::global().parallel_apply(
      static_cast<std::int64_t>(ids.size()), [&](std::int64_t i) {
        const auto k = static_cast<std::size_t>(i);
        results[k] = optimal_order(kernel, paths[ids[k]], cost, dp_options);
      });
  for (const DpResult& r : results) {
    plan->paths_searched += 1;
    plan->dp_subproblems += r.subproblems;
    plan->dp_evaluations += r.evaluations;
  }
  return results;
}

/// The nest chooser: Algorithm 1 under the configured cost at `bound` on
/// the paths `ids` names. The lowest cost wins, the earliest path on ties.
/// Returns whether any path is feasible; fills plan's path, order, cost and
/// bound when one is.
bool choose_nest(const Kernel& kernel, const SparsityStats& stats,
                 const PlannerOptions& options,
                 const std::vector<ContractionPath>& paths,
                 const std::vector<std::size_t>& ids, int bound, Plan* plan) {
  PlannerOptions bounded = options;
  bounded.buffer_dim_bound = bound;
  const std::vector<DpResult> results = run_dps(
      kernel, paths, ids, *make_cost_model(bounded, &stats), options, plan);
  bool found = false;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const DpResult& r = results[k];
    if (!r.feasible) continue;
    plan->paths_feasible += 1;
    if (!found || r.best_cost < plan->cost) {
      plan->path = paths[ids[k]];
      plan->order = r.best;
      plan->cost = r.best_cost;
      plan->buffer_dim_bound = bound;
      found = true;
    }
  }
  return found;
}

/// The nest among every held path (paper Section 5: costlier groups, then
/// looser bounds). Algorithm 1 under MaxBufferDimCost gives each path the
/// least bound it can meet, since BoundedBufferBlasCost rejects a peel
/// exactly when its crossing_buffer_dim exceeds the bound, over the same
/// orders. So the bound is the initial one, raised to the least path's when
/// relaxation applies. The group of the first path that meets it wins, and
/// only its paths that meet it run the configured DP. Throws spttn::Error
/// when no path has a nest.
Plan choose_by_least_bound(const Kernel& kernel, const SparsityStats& stats,
                           const PlannerOptions& options,
                           const SearchResult& found) {
  std::vector<std::size_t> ids(found.paths.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  Plan plan;
  const std::vector<DpResult> dims =
      run_dps(kernel, found.paths, ids, MaxBufferDimCost(), options, &plan);
  const bool bounded = options.cost == CostKind::kBoundedBufferBlas;
  int bound = options.buffer_dim_bound;
  if (bounded && options.allow_bound_relaxation) {
    // An infeasible DpResult's best_cost is Cost::inf().
    double least = std::numeric_limits<double>::infinity();
    for (const DpResult& d : dims) least = std::min(least, d.best_cost.primary);
    if (std::isfinite(least)) bound = std::max(bound, static_cast<int>(least));
  }
  const auto meets = [&](std::size_t p) {
    return dims[p].feasible &&
           (!bounded || dims[p].best_cost.primary <= bound);
  };
  std::size_t first = 0;
  while (first < ids.size() && !meets(first)) ++first;
  std::size_t end = 0;
  while (end <= first && end < ids.size()) end = group_end(found.flops, end);
  std::erase_if(ids, [&](std::size_t p) { return p >= end || !meets(p); });
  const bool feasible =
      !ids.empty() &&
      choose_nest(kernel, stats, options, found.paths, ids, bound, &plan);
  SPTTN_CHECK_MSG(feasible, "no feasible loop nest found for kernel "
                                << kernel.to_string());
  return plan;
}

}  // namespace

std::vector<ContractionPath> executable_paths(const Kernel& kernel,
                                              const SparsityStats& stats,
                                              int* total_paths,
                                              std::vector<double>* flops_out) {
  SearchResult found =
      PathSearch(kernel, stats, 0, std::numeric_limits<std::size_t>::max(), 0)
          .run();
  if (total_paths != nullptr) {
    constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
    *total_paths = kernel.num_inputs() < 2
                       ? 0
                       : static_cast<int>(std::min(
                             count_paths(kernel.num_inputs()), kMaxInt));
  }
  if (flops_out != nullptr) *flops_out = std::move(found.flops);
  return std::move(found.paths);
}

Plan make_plan(const Kernel& kernel, const SparsityStats& stats,
               const PlannerOptions& options) {
  SPTTN_CHECK_MSG(kernel.dims_bound(),
                  "bind index dimensions before planning");
  const auto search = [&](double tolerance) {
    return PathSearch(kernel, stats, tolerance, kMaxPathsSearched,
                      options.budget.max_nodes)
        .run();
  };
  SearchResult found = search(kFlopGroupTolerance);
  SPTTN_CHECK_MSG(!found.paths.empty(),
                  "no single-CSF executable contraction path for kernel "
                      << kernel.to_string());
  // The cheapest flop group at the initial bound. Only that group was held
  // for certain, so when it has no nest, hold every group. The plan counts
  // the DPs of both passes.
  Plan plan;
  std::vector<std::size_t> cheapest(group_end(found.flops, 0));
  std::iota(cheapest.begin(), cheapest.end(), std::size_t{0});
  if (!choose_nest(kernel, stats, options, found.paths, cheapest,
                   options.buffer_dim_bound, &plan)) {
    const Plan first = std::move(plan);
    found = search(0);
    plan = choose_by_least_bound(kernel, stats, options, found);
    plan.paths_searched += first.paths_searched;
    plan.paths_feasible += first.paths_feasible;
    plan.dp_subproblems += first.dp_subproblems;
    plan.dp_evaluations += first.dp_evaluations;
  }
  plan.flops = path_flops(kernel, plan.path, stats);
  plan.sparsity_fingerprint = stats.fingerprint();
  plan.tree = LoopTree::build(kernel, plan.path, plan.order);
  plan.paths_total =
      static_cast<std::int64_t>(count_paths(kernel.num_inputs()));
  plan.paths_executable = found.reached;
  plan.nodes_expanded = found.nodes;
  plan.budget_exhausted = found.exhausted;
  plan.flops_lower_bound = found.lower_bound;
  // A path that meets the bound has no gap, also when both are 0 flops (a
  // tensor with no nonzeros), where the ratio would be NaN.
  plan.optimality_gap = found.flops.front() == found.lower_bound
                            ? 0.0
                            : found.flops.front() / found.lower_bound - 1.0;
  // Always in Debug, opt-in via options.verify in Release, and always
  // under a node budget: a search cut short is only served behind the
  // static verifier.
#ifndef NDEBUG
  verify_plan_or_throw(kernel, plan, options, &stats);
#else
  if (options.verify || options.budget.max_nodes > 0) {
    verify_plan_or_throw(kernel, plan, options, &stats);
  }
#endif
  return plan;
}

}  // namespace spttn
