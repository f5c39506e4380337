// Planner internals (paper Section 5). make_plan takes executable
// contraction paths from one of two sources and hands them to one loop-nest
// selector, then runs the verification gate:
//
//   kExact    executable_paths ───────────────────┐
//   kAnytime  plan_anytime's restarts and BFS ────┴─► select_nest ─► verify
#pragma once

#include <vector>

#include "core/planner.hpp"

namespace spttn {

/// Choose the loop nest among `paths`, sorted by their FLOP estimates
/// `flops` (ties in the caller's order). Paths within
/// kFlopGroupTolerance of their group's first path form one group, and at
/// most kMaxPathsSearched paths are searched. Algorithm 1 runs group by
/// group, cheapest first; the first group with a feasible nest wins, with
/// its lowest-cost nest (the earliest path on ties). When no group fits
/// under the buffer bound and relaxation is allowed, the bound grows by one
/// and the scan restarts. Each pass scans waves of groups whose DPs fan out
/// together on the process pool; waves double in size when the pool has
/// more than one lane. Results merge in path order and groups after the
/// winner are discarded, so the Plan is the same on any lane count. Fills
/// every Plan field except paths_total, paths_executable, strategy and the
/// anytime diagnostics. Throws spttn::Error when `paths` is empty or no
/// nest fits.
Plan select_nest(const Kernel& kernel, const SparsityStats& stats,
                 const PlannerOptions& options,
                 const std::vector<ContractionPath>& paths,
                 const std::vector<double>& flops);

/// The anytime path source (core/anytime_strategy.cpp): greedy restarts
/// and a pruned breadth-first search under options.budget propose paths,
/// select_nest chooses among them, and the returned Plan also carries the
/// search's path counts and anytime diagnostics.
Plan plan_anytime(const Kernel& kernel, const SparsityStats& stats,
                  const PlannerOptions& options);

}  // namespace spttn
