// The SpTTN planner (paper Section 5): enumerate contraction paths, keep
// the asymptotically cheapest executable ones, and pick the loop nest that
// minimizes the configured tree-separable cost via Algorithm 1, falling back
// to costlier paths (and looser buffer bounds) when constrained. The exact
// and anytime strategies differ only in how they propose paths; one
// selector picks the nest (core/planner_strategy.hpp).
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

/// Which source proposes the contraction paths the nest is chosen from.
enum class StrategyKind {
  /// Every executable path of the exhaustive enumeration — optimal, but the
  /// path count is n!(n-1)!/2^(n-1) in the input count, so order-8
  /// networks are out of reach.
  kExact,
  /// Paths found by cost-model-seeded randomized restarts and a pruned
  /// breadth-first search over contraction sequences, under a
  /// PlanningBudget, with a reported optimality gap (in the style of
  /// Pfeifer et al.).
  kAnytime,
};

/// Resource limits for the anytime search. Zero means unlimited; with both
/// limits zero the anytime search runs to completion (every distinct
/// contraction tree) and its best cost matches the exact strategy's.
struct PlanningBudget {
  /// Wall-clock deadline for the search in milliseconds. The final
  /// order-DP pass always runs far enough to return at least one feasible
  /// plan, so a slight overrun is possible — the guarantee is "a verified
  /// feasible plan, promptly", never "an exception at the deadline".
  /// Makes the search timing-dependent, hence nondeterministic.
  std::int64_t max_millis = 0;
  /// Deterministic alternative: cap on BFS node expansions. With a fixed
  /// seed the resulting plan is bit-identical across runs.
  std::int64_t max_nodes = 0;

  bool unlimited() const { return max_millis <= 0 && max_nodes <= 0; }
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
/// Safety cap on DP invocations across path groups.
inline constexpr int kMaxPathsSearched = 256;
/// Identity of the planner's cost model. KernelCache::save_dir stamps it
/// into every plan artifact (`meta cost_model <N>`) and load_dir rejects an
/// artifact whose stamp is missing or different, so the kernel re-plans
/// instead of serving a nest an older model chose. Bump it whenever a
/// change re-records golden plans (spttn_golden --out tests/golden).
inline constexpr int kCostModelVersion = 1;

struct PlannerOptions {
  CostKind cost = CostKind::kBoundedBufferBlas;
  /// Intermediate-dimension bound for kBoundedBufferBlas (paper uses 2).
  int buffer_dim_bound = 2;
  /// Relax the bound (up to the kernel's index count) when no loop nest
  /// fits; mirrors the runtime's constraint-relaxation loop.
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
  /// Search strategy. The anytime fields below only take effect (and only
  /// enter planner_options_hash) when this is kAnytime: under kExact they
  /// are inert, so toggling them must not fragment the kernel cache, while
  /// under kAnytime they change the chosen plan and must key it.
  StrategyKind strategy = StrategyKind::kExact;
  /// Anytime search budget (ignored by kExact).
  PlanningBudget budget;
  /// Seed for the anytime strategy's randomized restarts. With
  /// budget.max_millis == 0 the whole anytime search is deterministic in
  /// this seed (bit-identical plans and stats across runs).
  std::uint64_t anytime_seed = 42;
  /// Greedy restart count for the anytime strategy (restart 0 is pure
  /// cost-model descent; later restarts jitter the pair scores).
  int anytime_restarts = 4;
  /// Frontier cap per BFS level when a budget is set (0 = uncapped).
  /// Truncation keeps the cheapest states and folds the dropped ones into
  /// the reported lower bound, so the gap stays admissible.
  int anytime_beam = 4096;
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

  // Search counts. paths_total and paths_executable count what the path
  // source proposed (the anytime source counts distinct trees found); the
  // rest accumulate over every group and buffer bound the selector tried.
  int paths_total = 0;          ///< enumerated contraction paths
  int paths_executable = 0;     ///< single-CSF executable paths
  int paths_searched = 0;       ///< paths run through the DP
  int paths_feasible = 0;       ///< searched paths with a feasible nest
  std::int64_t dp_subproblems = 0;   ///< distinct memoized DP subproblems
  std::int64_t dp_evaluations = 0;   ///< DP (root, split) candidates examined

  /// Strategy that produced the plan. plan_io serializes the anytime
  /// diagnostics below in an optional trailing record only when strategy
  /// != kExact, so exact plan artifacts are byte-identical to the
  /// pre-strategy format.
  StrategyKind strategy = StrategyKind::kExact;
  // Anytime diagnostics; all zero under kExact.
  std::int64_t nodes_expanded = 0;  ///< BFS states expanded
  int restarts = 0;                 ///< greedy restarts attempted
  /// Admissible lower bound on any executable path's FLOP estimate: partial
  /// path flops are monotone additive, so the cheapest pruned/unexpanded
  /// prefix bounds everything the search did not look at.
  double flops_lower_bound = 0;
  /// best_flops / flops_lower_bound - 1. Zero means the search completed
  /// without dropping states — the flop estimate is proven optimal.
  double optimality_gap = 0;
  bool budget_exhausted = false;    ///< a PlanningBudget limit stopped the BFS

  /// Render the chosen loop nest with costs, in the style of the listings.
  std::string describe(const Kernel& kernel) const;
};

/// Instantiate the cost model named by options (stats may be null for
/// models that do not need it).
std::unique_ptr<TreeCost> make_cost_model(const PlannerOptions& options,
                                          const SparsityStats* stats);

/// Plan a kernel: `options.strategy` picks the path source, and one
/// selector chooses the nest (core/planner_strategy.hpp). `stats` supplies
/// the sparsity statistics of the sparse operand (exact or modeled).
/// Throws spttn::Error when the kernel admits no executable loop nest. The
/// chosen plan is verified by the static plan verifier in Debug builds,
/// when `options.verify` is set, and always for anytime plans — a
/// non-exhaustive search is only safe to serve behind the full static gate.
Plan make_plan(const Kernel& kernel, const SparsityStats& stats,
               const PlannerOptions& options = {});

/// All single-CSF-executable contraction paths sorted by estimated FLOPs
/// (cheapest first, enumeration order on ties): the exact strategy's path
/// source, also used by benches and the autotuner. The per-path filter and
/// FLOP estimates fan out over the process pool; the returned list is the
/// same on any lane count. `flops_out`, when non-null, receives each
/// returned path's FLOP estimate (same order), saving callers that group by
/// cost a second estimation sweep.
std::vector<ContractionPath> executable_paths(
    const Kernel& kernel, const SparsityStats& stats,
    int* total_paths = nullptr, std::vector<double>* flops_out = nullptr);

}  // namespace spttn
