// Cost-bounded anytime planner search (ROADMAP item 4, in the spirit of
// Pfeifer et al.'s pruned breadth-first search over contraction sequences).
//
// Three phases:
//   1. Greedy restarts: cost-model descent over pair contractions (restart
//      0 pure, later restarts jitter the pair scores with Rng(seed ^ r)),
//      keeping only pair choices whose term stays CSF-prefix executable.
//      Each completed descent is an executable path — a feasible incumbent
//      exists microseconds in, before any breadth-first work.
//   2. Deduplicated BFS over partial contraction sequences. Children are
//      built exactly like enumerate_rec's terms; a child is pruned when its
//      term violates the per-term CSF-prefix rule (no completion of that
//      prefix is executable, so the prune is exact), when its canonical
//      tree signature was already reached (orderings of the same
//      contraction tree have identical flops and executability — one
//      representative suffices), or — only under a budget — when its
//      partial FLOP estimate already exceeds the incumbent's group
//      tolerance or the per-level beam overflows. Partial flops are
//      monotone additive, so every pruned or unexpanded state's flops is an
//      admissible lower bound on its completions; the minimum over dropped
//      states yields the reported optimality gap.
//   3. The exact strategy's group-and-relax order DP over the discovered
//      paths: sort by flops, group by flop_group_tolerance, DP group by
//      group inside the buffer-bound relaxation loop, return the first
//      feasible group's best-cost nest. With an unlimited budget nothing is
//      dropped, the discovered set covers every distinct contraction tree,
//      and the chosen cost matches the exact strategy's.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/planner_strategy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace spttn {

namespace {

using Clock = std::chrono::steady_clock;

/// One operand in a partial contraction sequence, plus the canonical
/// signature of the contraction subtree that produced it (inputs hash their
/// id; merges hash the unordered child pair and the output index set, so
/// every ordering of the same tree folds to one signature).
struct Operand {
  PathOperand op;
  bool carries_sparse = false;
  std::uint64_t sig = 0;
};

/// A partial contraction sequence: remaining operands, terms so far, and
/// the accumulated FLOP estimate (term-ordered sum, bit-equal to
/// path_flops over the completed path).
struct State {
  std::vector<Operand> items;
  std::vector<PathTerm> terms;
  double flops = 0;
};

/// A discovered complete executable path.
struct Found {
  ContractionPath path;
  double flops = 0;
  std::uint64_t sig = 0;
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
std::uint64_t state_sig(const std::vector<Operand>& items) {
  std::uint64_t sum = 0;
  std::uint64_t x = 0;
  for (const Operand& it : items) {
    const std::uint64_t m = hash_mix(it.sig);
    sum += m;
    x ^= hash_mix(m ^ 0x94d049bb133111ebULL);
  }
  return hash_mix(sum) ^ x;
}

/// Build the term contracting items[a] * items[b], exactly as
/// enumerate_rec does. Returns false when the term breaks the per-term
/// CSF-prefix rule — no completion of such a prefix passes
/// csf_prefix_executable, so callers drop the child outright.
bool make_term(const Kernel& kernel, const std::vector<Operand>& items,
               std::size_t a, std::size_t b, PathTerm* term) {
  IndexSet needed = kernel.output_indices();
  for (std::size_t c = 0; c < items.size(); ++c) {
    if (c == a || c == b) continue;
    needed |= items[c].op.iset;
  }
  term->lhs = items[a].op;
  term->rhs = items[b].op;
  term->refs = items[a].op.iset | items[b].op.iset;
  term->out = term->refs & needed;
  term->carries_sparse = items[a].carries_sparse || items[b].carries_sparse;
  term->sparse_refs = term->refs & kernel.sparse_modes();
  if (!term->carries_sparse) return true;
  const auto& csf_order = kernel.sparse_ref().idx;
  IndexSet prefix;
  const int k = term->sparse_refs.size();
  for (int l = 0; l < k; ++l) {
    prefix.insert(csf_order[static_cast<std::size_t>(l)]);
  }
  return term->sparse_refs == prefix;
}

/// Apply `term` to `s` (remove b, replace a with the merged intermediate),
/// mirroring enumerate_rec's list reduction.
State apply_term(const State& s, std::size_t a, std::size_t b,
                 const PathTerm& term, double d_flops) {
  State next;
  next.terms = s.terms;
  next.terms.push_back(term);
  next.flops = s.flops + d_flops;
  Operand merged;
  merged.op.kind = PathOperand::Kind::kIntermediate;
  merged.op.id = static_cast<int>(s.terms.size());
  merged.op.iset = term.out;
  merged.carries_sparse = term.carries_sparse;
  merged.sig = merge_sig(s.items[a].sig, s.items[b].sig, term.out);
  next.items.reserve(s.items.size() - 1);
  for (std::size_t c = 0; c < s.items.size(); ++c) {
    if (c == b) continue;
    next.items.push_back(c == a ? merged : s.items[c]);
  }
  return next;
}

State initial_state(const Kernel& kernel) {
  State s;
  s.items.reserve(static_cast<std::size_t>(kernel.num_inputs()));
  for (int i = 0; i < kernel.num_inputs(); ++i) {
    Operand it;
    it.op.kind = PathOperand::Kind::kInput;
    it.op.id = i;
    it.op.iset = kernel.input(i).iset;
    it.carries_sparse = (i == kernel.sparse_input());
    it.sig = input_sig(i);
    s.items.push_back(it);
  }
  return s;
}

/// Greedy completion of `s`: repeatedly apply the cheapest valid pair
/// (scores jittered multiplicatively when rng != nullptr). Returns true and
/// appends to `out` when a complete path is reached; false on a dead end
/// (no CSF-valid pair at some step).
bool greedy_complete(const Kernel& kernel, const SparsityStats& stats,
                     State s, Rng* rng, std::vector<Found>* out) {
  while (s.items.size() > 1) {
    bool have = false;
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    PathTerm best_term;
    double best_d = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < s.items.size(); ++a) {
      for (std::size_t b = a + 1; b < s.items.size(); ++b) {
        PathTerm term;
        if (!make_term(kernel, s.items, a, b, &term)) continue;
        const double d = term_flops(kernel, term, stats);
        const double score =
            rng == nullptr ? d : d * (1.0 + rng->next_double());
        if (!have || score < best_score) {
          have = true;
          best_a = a;
          best_b = b;
          best_term = term;
          best_d = d;
          best_score = score;
        }
      }
    }
    if (!have) return false;
    s = apply_term(s, best_a, best_b, best_term, best_d);
  }
  Found f;
  f.path.terms = std::move(s.terms);
  f.flops = s.flops;
  f.sig = s.items.front().sig;
  out->push_back(std::move(f));
  return true;
}

/// Exhaustive first-success completion with backtracking, in deterministic
/// pair order. The greedy descent can dead-end on every restart (a locally
/// cheap pair may exclude every later CSF-valid pair — tttc4 does this), so
/// the feasibility guarantee needs a completion that backtracks. Returns on
/// the FIRST complete path, so the cost is bounded by the dead-end depth,
/// not the full path space.
bool dfs_complete(const Kernel& kernel, const SparsityStats& stats,
                  const State& s, std::vector<Found>* out) {
  if (s.items.size() == 1) {
    Found f;
    f.path.terms = s.terms;
    f.flops = s.flops;
    f.sig = s.items.front().sig;
    out->push_back(std::move(f));
    return true;
  }
  for (std::size_t a = 0; a < s.items.size(); ++a) {
    for (std::size_t b = a + 1; b < s.items.size(); ++b) {
      PathTerm term;
      if (!make_term(kernel, s.items, a, b, &term)) continue;
      const double d = term_flops(kernel, term, stats);
      if (dfs_complete(kernel, stats, apply_term(s, a, b, term, d), out)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Plan AnytimeStrategy::plan(const Kernel& kernel, const SparsityStats& stats,
                           const PlannerOptions& options) const {
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

  // Phase 1: greedy restarts. Dedup against already-found trees so stats
  // count distinct paths.
  std::vector<Found> found;
  std::unordered_set<std::uint64_t> found_sigs;
  const int restarts = std::max(0, options.anytime_restarts);
  for (int r = 0; r < restarts; ++r) {
    std::vector<Found> one;
    Rng rng(options.anytime_seed ^ static_cast<std::uint64_t>(r));
    if (!greedy_complete(kernel, stats, init, r == 0 ? nullptr : &rng, &one)) {
      continue;
    }
    if (found_sigs.insert(one.front().sig).second) {
      found.push_back(std::move(one.front()));
    }
  }
  double incumbent_flops = std::numeric_limits<double>::infinity();
  for (const Found& f : found) incumbent_flops = std::min(incumbent_flops, f.flops);

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
  seen.insert(state_sig(init.items));
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
          limited ? incumbent_flops * options.flop_group_tolerance
                  : std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a < s.items.size(); ++a) {
        for (std::size_t b = a + 1; b < s.items.size(); ++b) {
          PathTerm term;
          if (!make_term(kernel, s.items, a, b, &term)) continue;
          const double d = term_flops(kernel, term, stats);
          const double child_flops = s.flops + d;
          if (child_flops >= prune_limit) {
            drop(child_flops);
            continue;
          }
          State child = apply_term(s, a, b, term, d);
          if (child.items.size() == 1) {
            const std::uint64_t sig = child.items.front().sig;
            if (!found_sigs.insert(sig).second) continue;
            Found f;
            f.path.terms = std::move(child.terms);
            f.flops = child.flops;
            f.sig = sig;
            incumbent_flops = std::min(incumbent_flops, f.flops);
            found.push_back(std::move(f));
          } else {
            if (!seen.insert(state_sig(child.items)).second) continue;
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
      std::vector<Found> one;
      if (dfs_complete(kernel, stats, s, &one) &&
          found_sigs.insert(one.front().sig).second) {
        found.push_back(std::move(one.front()));
        break;
      }
    }
    if (found.empty()) {
      std::vector<Found> one;
      if (dfs_complete(kernel, stats, init, &one) &&
          found_sigs.insert(one.front().sig).second) {
        found.push_back(std::move(one.front()));
      }
    }
  }
  SPTTN_CHECK_MSG(!found.empty(),
                  "no single-CSF executable contraction path for kernel "
                      << kernel.to_string());

  // Phase 3: the exact strategy's group-and-relax DP over the discovered
  // paths. Stable sort by flops keeps discovery order among ties, so the
  // whole phase is deterministic for a node-budgeted search.
  std::vector<std::size_t> order(found.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return found[x].flops < found[y].flops;
                   });
  std::vector<std::vector<const ContractionPath*>> groups;
  std::vector<double> group_flops;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const double f = found[order[i]].flops;
    if (groups.empty() || f > group_flops.back() * options.flop_group_tolerance) {
      groups.emplace_back();
      group_flops.push_back(f);
    }
    groups.back().push_back(&found[order[i]].path);
    if (options.max_paths_searched > 0 &&
        static_cast<int>(i) + 1 >= options.max_paths_searched) {
      break;
    }
  }

  Plan plan;
  plan.strategy = StrategyKind::kAnytime;
  plan.paths_total = static_cast<int>(found.size());
  plan.paths_executable = static_cast<int>(found.size());
  DpOptions dp_options;
  dp_options.restrict_csf_order = options.restrict_csf_order;
  PlannerOptions effective = options;
  const int max_bound =
      std::max(options.buffer_dim_bound, kernel.num_indices());
  SearchStats search;
  bool planned = false;
  for (int bound = options.buffer_dim_bound;
       bound <= max_bound && !planned; ++bound) {
    effective.buffer_dim_bound = bound;
    const std::unique_ptr<TreeCost> cost = make_cost_model(effective, &stats);
    for (const auto& group : groups) {
      bool group_found = false;
      for (const ContractionPath* p : group) {
        const DpResult r = optimal_order(kernel, *p, *cost, dp_options);
        search.paths_searched += 1;
        search.dp_subproblems += r.subproblems;
        search.dp_evaluations += r.evaluations;
        if (!r.feasible) continue;
        search.paths_feasible += 1;
        if (!group_found || r.best_cost < plan.cost) {
          plan.path = *p;
          plan.order = r.best;
          plan.cost = r.best_cost;
          group_found = true;
        }
      }
      if (group_found) {
        plan.buffer_dim_bound = bound;
        planned = true;
        break;
      }
    }
    if (!options.allow_bound_relaxation ||
        options.cost != CostKind::kBoundedBufferBlas) {
      break;
    }
  }
  SPTTN_CHECK_MSG(planned, "no feasible loop nest found for kernel "
                               << kernel.to_string());

  plan.paths_searched = search.paths_searched;
  plan.paths_feasible = search.paths_feasible;
  plan.dp_subproblems = search.dp_subproblems;
  plan.dp_evaluations = search.dp_evaluations;
  plan.flops = path_flops(kernel, plan.path, stats);
  plan.sparsity_fingerprint = stats.fingerprint();
  plan.tree = LoopTree::build(kernel, plan.path, plan.order);

  // Gap: cheapest discovered path vs the admissible bound on anything the
  // search did not look at. A completed search drops nothing, so the bound
  // equals the best and the gap is zero (flop-optimality proven).
  const double best_found = found[order.front()].flops;
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
