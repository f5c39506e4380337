#include "core/planner.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
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

/// Choose the loop nest among `found`'s paths (paper Section 5). Paths
/// within kFlopGroupTolerance of their group's first path form one group.
/// Algorithm 1 runs group by group, cheapest first; the first group with a
/// feasible nest wins, with its lowest-cost nest (the earliest path on
/// ties). When no group fits under the buffer bound and relaxation is
/// allowed, the bound grows by one and the scan restarts. With
/// `first_group_only` only the first group at the initial bound is tried,
/// and nothing is returned when it has no feasible nest.
///
/// Each pass scans waves of groups whose DPs fan out together on the
/// process pool; waves double in size when the pool has more than one
/// lane. Results merge in path order and groups after the winner are
/// discarded, so the Plan is the same on any lane count. Fills the nest,
/// its bound and the DP counts. Throws spttn::Error when `found` holds no
/// path, or when no nest fits and `first_group_only` is false.
std::optional<Plan> select_nest(const Kernel& kernel,
                                const SparsityStats& stats,
                                const PlannerOptions& options,
                                const SearchResult& found,
                                bool first_group_only) {
  const std::vector<ContractionPath>& paths = found.paths;
  const std::vector<double>& flops = found.flops;
  SPTTN_CHECK_MSG(!paths.empty(),
                  "no single-CSF executable contraction path for kernel "
                      << kernel.to_string());
  // Group g holds paths [starts[g], starts[g + 1]): a path joins the open
  // group while its flops stay within the tolerance of the group's first.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (starts.empty() ||
        flops[i] > flops[starts.back()] * kFlopGroupTolerance) {
      starts.push_back(i);
    }
  }
  const std::size_t groups = first_group_only ? 1 : starts.size();
  starts.push_back(paths.size());

  // Wave 1 holds only the optimal-complexity group, so the common case
  // does exactly the sequential scan's work; later waves buy parallelism
  // with bounded speculation (at most the winning wave's trailing groups,
  // whose counts the merge never adds).
  DpOptions dp_options;
  dp_options.restrict_csf_order = options.restrict_csf_order;
  std::vector<DpResult> results(paths.size());
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
    if (first_group_only) return std::nullopt;
    if (!options.allow_bound_relaxation ||
        options.cost != CostKind::kBoundedBufferBlas) {
      break;
    }
  }
  SPTTN_CHECK_MSG(false, "no feasible loop nest found for kernel "
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
  std::optional<Plan> plan =
      select_nest(kernel, stats, options, found, /*first_group_only=*/true);
  if (!plan) {
    // Only the cheapest group was held; scan them all, then looser bounds,
    // as the exhaustive list would be scanned.
    found = search(0);
    plan = select_nest(kernel, stats, options, found, false);
  }
  plan->paths_total =
      static_cast<std::int64_t>(count_paths(kernel.num_inputs()));
  plan->paths_executable = found.reached;
  plan->nodes_expanded = found.nodes;
  plan->budget_exhausted = found.exhausted;
  plan->flops_lower_bound = found.lower_bound;
  // A path that meets the bound has no gap, also when both are 0 flops (a
  // tensor with no nonzeros), where the ratio would be NaN.
  plan->optimality_gap = found.flops.front() == found.lower_bound
                             ? 0.0
                             : found.flops.front() / found.lower_bound - 1.0;
  // Always in Debug, opt-in via options.verify in Release, and always
  // under a node budget: a search cut short is only served behind the
  // static verifier.
#ifndef NDEBUG
  verify_plan_or_throw(kernel, *plan, options, &stats);
#else
  if (options.verify || options.budget.max_nodes > 0) {
    verify_plan_or_throw(kernel, *plan, options, &stats);
  }
#endif
  return std::move(*plan);
}

}  // namespace spttn
