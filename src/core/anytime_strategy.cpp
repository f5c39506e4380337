// Anytime path source, in the spirit of Pfeifer et al.'s pruned
// breadth-first search over contraction sequences. It only proposes
// executable contraction paths; select_nest chooses the loop nest among
// them exactly as it does for the exhaustive enumeration.
//
//   1. Greedy restarts: cost-model descent over pair contractions (restart
//      0 pure, later restarts jitter the pair scores with Rng(seed ^ r)),
//      keeping only pair choices whose term stays CSF-prefix executable.
//      Each completed descent is an executable path — a feasible incumbent
//      exists microseconds in, before any breadth-first work.
//   2. Deduplicated BFS over partial contraction sequences. Children come
//      from contract_pair, the rule enumerate_paths uses; a child is pruned
//      when its term fails term_csf_prefix_executable (no completion of
//      that prefix is executable, so the prune is exact), when its
//      canonical tree signature was already reached (orderings of the same
//      contraction tree have identical flops and executability — one
//      representative suffices), or — only under a budget — when its
//      partial FLOP estimate already exceeds the incumbent's group
//      tolerance or the per-level beam overflows. Partial flops are
//      monotone additive, so every pruned or unexpanded state's flops is an
//      admissible lower bound on its completions; the minimum over dropped
//      states yields the reported optimality gap.
//
// With an unlimited budget nothing is dropped, the discovered set covers
// every distinct contraction tree, and the chosen cost matches the exact
// strategy's.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/planner_strategy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace spttn {

namespace {

using Clock = std::chrono::steady_clock;

/// A partial contraction sequence: the working list, the terms so far, and
/// the accumulated FLOP estimate (term-ordered sum, bit-equal to path_flops
/// over the completed path). sigs[i] is the canonical signature of the
/// contraction subtree behind items[i]: inputs hash their id, merges hash
/// the unordered child pair and the output index set, so every ordering of
/// the same tree folds to one signature.
struct State {
  std::vector<PathItem> items;
  std::vector<std::uint64_t> sigs;
  ContractionPath path;
  double flops = 0;
};

std::uint64_t input_sig(int input_id) {
  return hash_mix(0x5eedfeedULL ^ static_cast<std::uint64_t>(input_id));
}

std::uint64_t merge_sig(std::uint64_t a, std::uint64_t b, IndexSet out) {
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  return hash_mix(hash_mix(lo ^ 0xa5a5a5a5a5a5a5a5ULL) ^ hash_mix(hi) ^
                  out.bits());
}

/// Order-insensitive signature of a state's operand multiset. The operand
/// sigs are Merkle over subtree structure, so equal multisets mean equal
/// sets of completions.
std::uint64_t state_sig(const std::vector<std::uint64_t>& sigs) {
  std::uint64_t sum = 0;
  std::uint64_t x = 0;
  for (const std::uint64_t sig : sigs) {
    const std::uint64_t m = hash_mix(sig);
    sum += m;
    x ^= hash_mix(m ^ 0x94d049bb133111ebULL);
  }
  return hash_mix(sum) ^ x;
}

State initial_state(const Kernel& kernel) {
  State s;
  s.items = input_items(kernel);
  for (int i = 0; i < kernel.num_inputs(); ++i) s.sigs.push_back(input_sig(i));
  return s;
}

/// The state after contracting items[a] * items[b] of `s`; `flops` is the
/// child's accumulated estimate.
State child_of(const Kernel& kernel, const State& s, std::size_t a,
               std::size_t b, double flops) {
  State next;
  next.path = s.path;
  next.path.terms.push_back(contract_pair(kernel, s.items, a, b, &next.items));
  next.sigs = s.sigs;
  next.sigs[a] = merge_sig(s.sigs[a], s.sigs[b], next.path.terms.back().out);
  next.sigs.erase(next.sigs.begin() + static_cast<std::ptrdiff_t>(b));
  next.flops = flops;
  return next;
}

/// Greedy completion of `s`: repeatedly apply the cheapest CSF-valid pair
/// (scores jittered multiplicatively when rng != nullptr). Returns the
/// completed state, or nothing on a dead end (no CSF-valid pair at some
/// step).
std::optional<State> greedy_complete(const Kernel& kernel,
                                     const SparsityStats& stats, State s,
                                     Rng* rng) {
  while (s.items.size() > 1) {
    bool have = false;
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    double best_d = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < s.items.size(); ++a) {
      for (std::size_t b = a + 1; b < s.items.size(); ++b) {
        const PathTerm term = contract_pair(kernel, s.items, a, b);
        if (!term_csf_prefix_executable(kernel, term)) continue;
        const double d = term_flops(kernel, term, stats);
        const double score =
            rng == nullptr ? d : d * (1.0 + rng->next_double());
        if (!have || score < best_score) {
          have = true;
          best_a = a;
          best_b = b;
          best_d = d;
          best_score = score;
        }
      }
    }
    if (!have) return std::nullopt;
    s = child_of(kernel, s, best_a, best_b, s.flops + best_d);
  }
  return s;
}

/// Exhaustive first-success completion with backtracking, in deterministic
/// pair order. The greedy descent can dead-end on every restart (a locally
/// cheap pair may exclude every later CSF-valid pair — tttc4 does this), so
/// the feasibility guarantee needs a completion that backtracks. Returns on
/// the FIRST complete path, so the cost is bounded by the dead-end depth,
/// not the full path space.
std::optional<State> dfs_complete(const Kernel& kernel,
                                  const SparsityStats& stats,
                                  const State& s) {
  if (s.items.size() == 1) return s;
  for (std::size_t a = 0; a < s.items.size(); ++a) {
    for (std::size_t b = a + 1; b < s.items.size(); ++b) {
      const PathTerm term = contract_pair(kernel, s.items, a, b);
      if (!term_csf_prefix_executable(kernel, term)) continue;
      const double flops = s.flops + term_flops(kernel, term, stats);
      if (auto done =
              dfs_complete(kernel, stats, child_of(kernel, s, a, b, flops))) {
        return done;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

Plan plan_anytime(const Kernel& kernel, const SparsityStats& stats,
                  const PlannerOptions& options) {
  const Clock::time_point start = Clock::now();
  const bool limited = !options.budget.unlimited();
  const bool timed = options.budget.max_millis > 0;
  const Clock::time_point deadline =
      timed ? start + std::chrono::milliseconds(options.budget.max_millis)
            : Clock::time_point::max();

  const State init = initial_state(kernel);
  SPTTN_CHECK_MSG(init.items.size() >= 2,
                  "no single-CSF executable contraction path for kernel "
                      << kernel.to_string());

  // Completed paths, one per distinct contraction tree, in discovery order.
  std::vector<State> found;
  std::unordered_set<std::uint64_t> found_sigs;
  const auto record = [&](State&& done) {
    if (!found_sigs.insert(done.sigs.front()).second) return false;
    found.push_back(std::move(done));
    return true;
  };

  // Phase 1: greedy restarts.
  const int restarts = std::max(0, options.anytime_restarts);
  for (int r = 0; r < restarts; ++r) {
    Rng rng(options.anytime_seed ^ static_cast<std::uint64_t>(r));
    if (auto done =
            greedy_complete(kernel, stats, init, r == 0 ? nullptr : &rng)) {
      record(std::move(*done));
    }
  }
  double incumbent_flops = std::numeric_limits<double>::infinity();
  for (const State& f : found) {
    incumbent_flops = std::min(incumbent_flops, f.flops);
  }

  // Phase 2: pruned, deduplicated BFS.
  std::int64_t nodes = 0;
  bool budget_exhausted = false;
  bool dropped_any = false;
  double lb_dropped = std::numeric_limits<double>::infinity();
  const auto drop = [&](double partial_flops) {
    dropped_any = true;
    lb_dropped = std::min(lb_dropped, partial_flops);
  };
  const auto over_budget = [&] {
    if (options.budget.max_nodes > 0 && nodes >= options.budget.max_nodes) {
      return true;
    }
    return timed && Clock::now() >= deadline;
  };

  std::unordered_set<std::uint64_t> seen;
  seen.insert(state_sig(init.sigs));
  std::vector<State> frontier;
  frontier.push_back(init);
  while (!frontier.empty() && !budget_exhausted) {
    std::vector<State> next;
    for (std::size_t si = 0; si < frontier.size(); ++si) {
      // Always expand at least one node so the lower bound rests on real
      // depth-1 states, then honor the budget between expansions.
      if (nodes > 0 && over_budget()) {
        budget_exhausted = true;
        for (std::size_t sj = si; sj < frontier.size(); ++sj) {
          drop(frontier[sj].flops);
        }
        break;
      }
      const State& s = frontier[si];
      ++nodes;
      const double prune_limit =
          limited ? incumbent_flops * kFlopGroupTolerance
                  : std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a < s.items.size(); ++a) {
        for (std::size_t b = a + 1; b < s.items.size(); ++b) {
          const PathTerm term = contract_pair(kernel, s.items, a, b);
          if (!term_csf_prefix_executable(kernel, term)) continue;
          const double child_flops = s.flops + term_flops(kernel, term, stats);
          if (child_flops >= prune_limit) {
            drop(child_flops);
            continue;
          }
          State child = child_of(kernel, s, a, b, child_flops);
          if (child.items.size() == 1) {
            if (record(std::move(child))) {
              incumbent_flops = std::min(incumbent_flops, child_flops);
            }
          } else if (seen.insert(state_sig(child.sigs)).second) {
            next.push_back(std::move(child));
          }
        }
      }
    }
    if (budget_exhausted) {
      for (const State& s : next) drop(s.flops);
      break;
    }
    if (limited && options.anytime_beam > 0 &&
        next.size() > static_cast<std::size_t>(options.anytime_beam)) {
      // Keep the cheapest states; the dropped tail feeds the lower bound.
      // stable_sort keeps insertion order among equal flops, so the beam is
      // deterministic.
      std::stable_sort(next.begin(), next.end(),
                       [](const State& x, const State& y) {
                         return x.flops < y.flops;
                       });
      for (std::size_t i = static_cast<std::size_t>(options.anytime_beam);
           i < next.size(); ++i) {
        drop(next[i].flops);
      }
      next.resize(static_cast<std::size_t>(options.anytime_beam));
    }
    frontier.swap(next);
  }

  // Feasibility guarantee under a budget: if nothing completed yet, finish
  // the cheapest surviving prefix (backtracking first-success descent, far
  // cheaper than another BFS level); if every frontier prefix is dead —
  // possible when beam truncation dropped the only viable ones — restart
  // the descent from the root, which succeeds iff any executable path
  // exists at all.
  if (found.empty() && budget_exhausted) {
    std::stable_sort(frontier.begin(), frontier.end(),
                     [](const State& x, const State& y) {
                       return x.flops < y.flops;
                     });
    for (const State& s : frontier) {
      if (auto done = dfs_complete(kernel, stats, s);
          done && record(std::move(*done))) {
        break;
      }
    }
    if (found.empty()) {
      if (auto done = dfs_complete(kernel, stats, init)) {
        record(std::move(*done));
      }
    }
  }

  // Stable sort by flops keeps discovery order among ties, so a
  // node-budgeted search is deterministic end to end.
  std::stable_sort(found.begin(), found.end(),
                   [](const State& x, const State& y) {
                     return x.flops < y.flops;
                   });
  std::vector<ContractionPath> paths;
  std::vector<double> flops;
  for (State& f : found) {
    paths.push_back(std::move(f.path));
    flops.push_back(f.flops);
  }
  Plan plan = select_nest(kernel, stats, options, paths, flops);
  plan.strategy = StrategyKind::kAnytime;
  plan.paths_total = static_cast<int>(paths.size());
  plan.paths_executable = static_cast<int>(paths.size());

  // Gap: cheapest discovered path vs the admissible bound on anything the
  // search did not look at. A completed search drops nothing, so the bound
  // equals the best and the gap is zero (flop-optimality proven).
  const double best_found = flops.front();
  double lb = best_found;
  if (dropped_any) lb = std::min(lb, lb_dropped);
  plan.nodes_expanded = nodes;
  plan.restarts = restarts;
  plan.flops_lower_bound = lb;
  plan.optimality_gap = lb > 0 ? best_found / lb - 1.0 : 0.0;
  plan.budget_exhausted = budget_exhausted;
  return plan;
}

}  // namespace spttn
