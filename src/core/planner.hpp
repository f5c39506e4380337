// The SpTTN planner (paper Section 5): search the contraction paths, keep
// the asymptotically cheapest executable ones, and pick the loop nest that
// minimizes the configured tree-separable cost via Algorithm 1, falling back
// to costlier paths (and looser buffer bounds) when constrained.
//
// One path source feeds the nest selector: a depth-first branch-and-bound
// over ordered pair sequences (contract_pair). It drops a prefix whose new
// term breaks the single-CSF rule, or whose partial FLOP estimate already
// exceeds kFlopGroupTolerance times the cheapest complete path so far; no
// completion of such a prefix can join the cheapest flop group. When that
// group has no feasible nest at the initial buffer bound, the search reruns
// without the FLOP bound, and Algorithm 1 under MaxBufferDimCost computes
// each held path's least bound once. The bound is the initial one, raised
// to the least path's when relaxation applies, and the first group with a
// path that meets it wins. So without a node budget the plan is exactly the
// one the exhaustive enumeration would give.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/contraction_path.hpp"
#include "core/cost.hpp"
#include "core/loop_tree.hpp"
#include "core/order_dp.hpp"

namespace spttn {

enum class CostKind {
  kMaxBufferDim,
  kMaxBufferSize,
  kCacheMiss,
  kBoundedBufferBlas,  ///< the paper's experiment metric (default)
};

/// Resource limit for the path search (make_plan). Zero means unlimited,
/// and an unlimited search is exact.
struct PlanningBudget {
  /// Cap on partial paths expanded. It is checked only once the search has
  /// found a complete executable path, so a budgeted search always returns
  /// a plan; it is deterministic (the same plan and diagnostics every run).
  std::int64_t max_nodes = 0;
};

/// Paths whose FLOP estimate is within this factor of the best are
/// considered the same asymptotic-cost group and compared by the cost
/// model. The group is not purely asymptotic: a path that runs a sparse
/// mode densely can cost a whole index extent more and still fall inside
/// it (nell-2's mode-1 MTTKRP fill path is 1.66x the per-fiber one), so
/// the cost model must not reward such a loop (see BoundedBufferBlasCost).
inline constexpr double kFlopGroupTolerance = 3.0;
/// Cache-model subtensor order D (Definition 4.6).
inline constexpr int kCacheD = 1;
/// The search holds at most this many complete paths, the cheapest by
/// (FLOPs, enumeration order); the selector runs the DP on no others.
inline constexpr int kMaxPathsSearched = 256;
/// Identity of the planner's cost model. KernelCache::save_dir stamps it
/// into every plan artifact (`meta cost_model <N>`) and load_dir rejects an
/// artifact whose stamp is missing or different, so the kernel re-plans
/// instead of serving a nest an older model chose. Bump it whenever a
/// change re-records golden plans (spttn_golden --out tests/golden).
inline constexpr int kCostModelVersion = 2;

struct PlannerOptions {
  CostKind cost = CostKind::kBoundedBufferBlas;
  /// Intermediate-dimension bound for kBoundedBufferBlas (paper uses 2).
  int buffer_dim_bound = 2;
  /// When no loop nest fits, raise the bound to the least one a held path
  /// can meet (at most the kernel's index count).
  bool allow_bound_relaxation = true;
  /// Sparse-carrying terms iterate sparse modes in CSF order.
  bool restrict_csf_order = true;
  /// Use CSF fan-outs instead of dense dims for sparse loop trip counts.
  bool sparse_aware_cache = true;
  /// Run the static plan verifier (analysis/plan_verifier.hpp) on the
  /// chosen plan before make_plan returns, throwing spttn::Error on any
  /// error diagnostic. Debug builds always verify; this flag opts Release
  /// builds in (1–5 microseconds per suite plan, see BENCH_verify.json).
  /// Excluded from planner_options_hash: verification never changes the
  /// plan, so it must not fragment the kernel cache.
  bool verify = false;
  /// Path-search budget; the default is unlimited (exact).
  PlanningBudget budget;
};

/// A fully planned SpTTN execution.
struct Plan {
  ContractionPath path;
  LoopOrder order;
  LoopTree tree;
  Cost cost;
  /// Estimated scalar operations of the chosen nest: path_flops, which
  /// charges each term the CSF prefix it can iterate sparsely and the full
  /// extent of every other index (core/contraction_path.hpp term_flops).
  double flops = 0;
  int buffer_dim_bound = 0;    ///< bound in effect when planned
  /// Structure fingerprint of the sparsity stats the plan was derived from
  /// (SparsityStats::fingerprint()); 0 when planned from modeled stats.
  /// The executor checks it against the CSF it is handed (see
  /// FusedExecutor::execute), so a cached plan cannot silently run against
  /// a structurally different tensor.
  std::uint64_t sparsity_fingerprint = 0;

  // Search counts. paths_executable and the diagnostics below describe the
  // path search whose paths the selector chose from; the DP counts cover
  // the Algorithm 1 runs of the pass that chose the nest.
  std::int64_t paths_total = 0;  ///< ordered contraction paths (count_paths)
  /// Complete single-CSF executable paths the search reached.
  std::int64_t paths_executable = 0;
  int paths_searched = 0;       ///< DP runs, one path each
  int paths_feasible = 0;       ///< searched paths with a feasible nest
  std::int64_t dp_subproblems = 0;   ///< distinct memoized DP subproblems
  std::int64_t dp_evaluations = 0;   ///< DP (root, split) candidates examined

  std::int64_t nodes_expanded = 0;  ///< partial paths the search expanded
  /// Lower bound on every executable path's FLOP estimate. Partial path
  /// flops only grow as terms are added, so the cheapest prefix a budget
  /// left unexpanded bounds every path the search did not reach; without
  /// that, the bound is the cheapest path found.
  double flops_lower_bound = 0;
  /// Cheapest found path's flops / flops_lower_bound - 1. Zero unless the
  /// budget stopped the search short of proving the cheapest path.
  double optimality_gap = 0;
  bool budget_exhausted = false;  ///< the node budget stopped the search

  /// Render the chosen loop nest with costs, in the style of the listings.
  std::string describe(const Kernel& kernel) const;
};

/// Instantiate the cost model named by options (stats may be null for
/// models that do not need it).
std::unique_ptr<TreeCost> make_cost_model(const PlannerOptions& options,
                                          const SparsityStats* stats);

/// Plan a kernel: the path search described at the top of this header
/// proposes paths and the selector chooses the nest. `stats` supplies the
/// sparsity statistics of the sparse operand (exact or modeled). Throws
/// spttn::Error when the kernel admits no executable loop nest. The chosen
/// plan is verified by the static plan verifier in Debug builds, when
/// `options.verify` is set, and always under a node budget — a search cut
/// short is only served behind the full static gate.
Plan make_plan(const Kernel& kernel, const SparsityStats& stats,
               const PlannerOptions& options = {});

/// All single-CSF-executable contraction paths sorted by estimated FLOPs
/// (cheapest first, enumeration order on ties): make_plan's search with no
/// FLOP bound, no cap and no budget, for benches, tools and tests.
/// `total_paths`, when non-null, receives count_paths of the input count
/// (0 below two inputs, capped at INT_MAX).
/// `flops_out`, when non-null, receives each returned path's FLOP estimate
/// (same order), saving callers that group by cost a second estimation
/// sweep.
std::vector<ContractionPath> executable_paths(
    const Kernel& kernel, const SparsityStats& stats,
    int* total_paths = nullptr, std::vector<double>* flops_out = nullptr);

}  // namespace spttn
