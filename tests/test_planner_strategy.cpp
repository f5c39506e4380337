// The planner's path search: its plans must match the checked-in goldens
// byte for byte on one pool lane and on four, and without a budget they
// must equal what the exhaustive enumeration gives. Under a node budget
// the search must be deterministic, feasible under any budget, honest in
// its gap and lower bound, able to plan order-8 networks, and correctly
// keyed in the kernel cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/plan_verifier.hpp"
#include "core/contraction_path.hpp"
#include "core/plan_io.hpp"
#include "exec/executor.hpp"
#include "exec/unfactorized.hpp"
#include "serve/kernel_cache.hpp"
#include "test_helpers.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

std::string read_golden(const std::string& kernel, const std::string& set) {
  const std::string path = std::string(SPTTN_SOURCE_DIR) +
                           "/tests/golden/" + kernel + "__" + set + ".plan";
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Serialize exactly as tools/spttn_golden does, meta included, so the
/// comparison covers the kernel header, the chosen path/order/tree, every
/// cost double (hex bit patterns), and every search count.
std::string golden_text(const SuiteInstance& inst, const std::string& kernel,
                        const LintOptionSet& set) {
  const Plan plan =
      make_plan(inst.bound.kernel, inst.bound.stats, set.options);
  return serialize_plan(inst.bound.kernel, plan,
                        {{"suite_kernel", kernel},
                         {"option_set", set.name},
                         {"seed", "42"}});
}

// make_plan must reproduce the checked-in golden plans byte for byte: same
// plan, same cost doubles, same search counts, for every paper kernel under
// every lint option set. The budget set pins a search the budget stops the
// same way (its goldens double as a determinism regression). Re-record
// with spttn_golden only when a change is meant to alter them.
TEST(PlannerStrategy, GoldenEqualityAcrossSuiteAndOptionSets) {
  for (const SuiteKernel& sk : paper_kernels()) {
    const auto inst = make_suite_instance(sk, 42);
    for (const LintOptionSet& set : lint_option_sets()) {
      SCOPED_TRACE(sk.name + " / " + set.name);
      const std::string want = read_golden(sk.name, set.name);
      ASSERT_FALSE(want.empty()) << "missing golden artifact — regenerate "
                                    "with tools/spttn_golden";
      EXPECT_EQ(golden_text(*inst, sk.name, set), want);
    }
  }
}

// The nest selector fans each pass's DPs out on the pool and chooses among
// the results in path order, so neither a one-lane pool (every DP inline)
// nor a four-lane pool may change a byte.
TEST(PlannerStrategy, ParallelExactSearchMatchesGoldens) {
  for (int lanes : {1, 4}) {
    testing::ScopedLanes pool(lanes);
    for (const SuiteKernel& sk : paper_kernels()) {
      const auto inst = make_suite_instance(sk, 42);
      for (const LintOptionSet& set : lint_option_sets()) {
        SCOPED_TRACE(sk.name + " / " + set.name +
                     " / lanes=" + std::to_string(lanes));
        const std::string want = read_golden(sk.name, set.name);
        ASSERT_FALSE(want.empty());
        EXPECT_EQ(golden_text(*inst, sk.name, set), want);
      }
    }
  }
}

SuiteKernel to_suite(const GeneratedNetwork& net, double sparsity) {
  SuiteKernel sk;
  sk.name = net.name;
  sk.expr = net.expr;
  sk.dims = net.dims;
  sk.sparsity = sparsity;
  return sk;
}

/// The nest the exhaustive enumeration gives, computed without the path
/// search: every enumerated path, the single-CSF filter, path_flops, a
/// stable sort (enumeration order on ties) cut to kMaxPathsSearched, then
/// the paper's rule, searched the long way. Groups hold paths within
/// kFlopGroupTolerance of their first path; the first group with a
/// feasible nest wins, with its lowest cost (the earliest path on ties);
/// when no group fits, the bound grows by one and the scan restarts.
struct Reference {
  ContractionPath path;
  LoopOrder order;
  Cost cost;
  double flops = 0;
  int buffer_dim_bound = 0;
  /// The cheapest group has no feasible nest at the initial bound.
  bool first_group_infeasible = false;
};

/// None when no group fits at any bound the options allow.
std::optional<Reference> exhaustive_reference(const Kernel& kernel,
                                              const SparsityStats& stats,
                                              const PlannerOptions& options) {
  std::vector<ContractionPath> paths;
  std::vector<double> flops;
  for (ContractionPath& p : enumerate_paths(kernel)) {
    if (!p.csf_prefix_executable(kernel)) continue;
    flops.push_back(path_flops(kernel, p, stats));
    paths.push_back(std::move(p));
  }
  std::vector<std::size_t> sorted(paths.size());
  std::iota(sorted.begin(), sorted.end(), std::size_t{0});
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flops[a] < flops[b];
                   });
  sorted.resize(
      std::min(sorted.size(), static_cast<std::size_t>(kMaxPathsSearched)));

  DpOptions dp_options;
  dp_options.restrict_csf_order = options.restrict_csf_order;
  Reference ref;
  const int max_bound =
      std::max(options.buffer_dim_bound, kernel.num_indices());
  for (int bound = options.buffer_dim_bound; bound <= max_bound; ++bound) {
    PlannerOptions bounded = options;
    bounded.buffer_dim_bound = bound;
    const std::unique_ptr<TreeCost> cost = make_cost_model(bounded, &stats);
    for (std::size_t begin = 0; begin < sorted.size();) {
      std::size_t end = begin;
      while (end < sorted.size() &&
             flops[sorted[end]] <=
                 flops[sorted[begin]] * kFlopGroupTolerance) {
        ++end;
      }
      // The group's DPs fan out on the pool; the merge below is in order.
      std::vector<DpResult> results(end - begin);
      ThreadPool::global().parallel_apply(
          static_cast<std::int64_t>(end - begin), [&](std::int64_t i) {
            results[static_cast<std::size_t>(i)] = optimal_order(
                kernel, paths[sorted[begin + static_cast<std::size_t>(i)]],
                *cost, dp_options);
          });
      bool found = false;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t p = sorted[i];
        const DpResult& r = results[i - begin];
        if (r.feasible && (!found || r.best_cost < ref.cost)) {
          ref.path = paths[p];
          ref.order = r.best;
          ref.cost = r.best_cost;
          ref.flops = flops[p];
          found = true;
        }
      }
      if (found) {
        ref.buffer_dim_bound = bound;
        return ref;
      }
      if (begin == 0 && bound == options.buffer_dim_bound) {
        ref.first_group_infeasible = true;
      }
      begin = end;
    }
    if (!options.allow_bound_relaxation ||
        options.cost != CostKind::kBoundedBufferBlas) {
      break;
    }
  }
  return std::nullopt;
}

/// make_plan against the exhaustive reference on one kernel: the same nest,
/// or a throw where the reference has none. Returns the reference.
std::optional<Reference> expect_matches_reference(
    const SuiteInstance& inst, const PlannerOptions& options) {
  const Kernel& k = inst.bound.kernel;
  const std::optional<Reference> want =
      exhaustive_reference(k, inst.bound.stats, options);
  if (!want) {
    EXPECT_THROW(make_plan(k, inst.bound.stats, options), Error);
    return want;
  }
  const Plan got = make_plan(k, inst.bound.stats, options);
  EXPECT_EQ(got.path.to_string(k), want->path.to_string(k));
  EXPECT_EQ(order_to_string(k, got.order), order_to_string(k, want->order));
  EXPECT_TRUE(got.cost == want->cost)
      << got.cost.to_string() << " vs " << want->cost.to_string();
  EXPECT_EQ(got.flops, want->flops);
  EXPECT_EQ(got.buffer_dim_bound, want->buffer_dim_bound);
  EXPECT_FALSE(got.budget_exhausted);
  EXPECT_EQ(got.optimality_gap, 0.0);
  return want;
}

// Without a budget the search is exact by construction: make_plan's path,
// order, cost, flops and bound equal the exhaustive reference's on every
// suite kernel under every unbudgeted lint set and at buffer bound 0
// (relaxation), and on random networks of order 3 to 6 (one test per
// order, so they run concurrently) — among them draws whose cheapest flop
// group has no feasible nest at the initial bound, the case where the
// search reruns without its FLOP bound and the selector computes the bound.
// The draws also run at bound 0, with relaxation and without it, where
// make_plan must throw exactly when the reference finds no nest. Rng(13004)
// is the draw that shows why every ordering is searched: keeping one
// ordering per contraction tree served it (0,-4,480) at 900 flops, where
// the exhaustive choice is (0,-5,214.75) at 366 flops.
TEST(PlannerStrategy, MatchesExhaustiveReference) {
  PlannerOptions bound0;
  bound0.buffer_dim_bound = 0;
  for (const SuiteKernel& sk : paper_kernels()) {
    const auto inst = make_suite_instance(sk, 42);
    for (const LintOptionSet& set : lint_option_sets()) {
      if (set.options.budget.max_nodes > 0) continue;
      SCOPED_TRACE(sk.name + " / " + set.name);
      expect_matches_reference(*inst, set.options);
    }
    SCOPED_TRACE(sk.name + " / bound 0");
    expect_matches_reference(*inst, bound0);
  }
}

/// What the random draws of one order showed.
struct DrawCounts {
  int draws = 0;
  /// Draws whose cheapest group has no feasible nest at the default bound.
  int first_group_infeasible = 0;
  /// Draws planned at bound 0, 1 and 2 from bound 0 with relaxation.
  std::array<int, 3> relaxed_to{};
};

/// 34 draws of `order` for orders 3 to 5 and 10 of order 6, each planned
/// under the default options and at bound 0 with and without relaxation
/// against the exhaustive reference. The order-6 draws start at seed 10 so
/// that they include seeds 18 and 19, whose cheapest group has no feasible
/// nest at bound 2.
DrawCounts match_random_draws(int order) {
  PlannerOptions bound0;
  bound0.buffer_dim_bound = 0;
  PlannerOptions strict0 = bound0;
  strict0.allow_bound_relaxation = false;
  DrawCounts counts;
  const int first = order < 6 ? 0 : 10;
  for (int seed = first; seed < first + (order < 6 ? 34 : 10); ++seed) {
    Rng rng(1000 * static_cast<std::uint64_t>(seed) +
            static_cast<std::uint64_t>(order));
    const GeneratedNetwork net = random_network(order, 4, 3, rng);
    SCOPED_TRACE("Rng(" + std::to_string(1000 * seed + order) +
                 "): " + net.expr);
    const auto inst = make_suite_instance(to_suite(net, 0.05), 42);
    const auto plain = expect_matches_reference(*inst, {});
    const auto relaxed = expect_matches_reference(*inst, bound0);
    const auto strict = expect_matches_reference(*inst, strict0);
    EXPECT_TRUE(plain && relaxed && relaxed->buffer_dim_bound <= 2);
    if (!plain || !relaxed || relaxed->buffer_dim_bound > 2) continue;
    counts.first_group_infeasible += plain->first_group_infeasible;
    ++counts.relaxed_to[static_cast<std::size_t>(relaxed->buffer_dim_bound)];
    // At bound 0, exactly the draws that relax throw without relaxation.
    EXPECT_EQ(strict.has_value(), relaxed->buffer_dim_bound == 0);
    ++counts.draws;
  }
  return counts;
}

// Over the four orders: 112 draws, 2 with the cheapest group infeasible,
// 22 relaxed to bound 1 and 18 to bound 2.
TEST(PlannerStrategy, MatchesExhaustiveReferenceOrder3) {
  const DrawCounts c = match_random_draws(3);
  EXPECT_EQ(c.draws, 34);
  EXPECT_EQ(c.first_group_infeasible, 0);
  EXPECT_EQ(c.relaxed_to[1], 0);
  EXPECT_EQ(c.relaxed_to[2], 0);
}

TEST(PlannerStrategy, MatchesExhaustiveReferenceOrder4) {
  const DrawCounts c = match_random_draws(4);
  EXPECT_EQ(c.draws, 34);
  EXPECT_EQ(c.first_group_infeasible, 0);
  EXPECT_EQ(c.relaxed_to[1], 8);
  EXPECT_EQ(c.relaxed_to[2], 0);
}

TEST(PlannerStrategy, MatchesExhaustiveReferenceOrder5) {
  const DrawCounts c = match_random_draws(5);
  EXPECT_EQ(c.draws, 34);
  EXPECT_EQ(c.first_group_infeasible, 0);
  EXPECT_EQ(c.relaxed_to[1], 12);
  EXPECT_EQ(c.relaxed_to[2], 10);
}

TEST(PlannerStrategy, MatchesExhaustiveReferenceOrder6) {
  const DrawCounts c = match_random_draws(6);
  EXPECT_EQ(c.draws, 10);
  EXPECT_EQ(c.first_group_infeasible, 2);
  EXPECT_EQ(c.relaxed_to[1], 2);
  EXPECT_EQ(c.relaxed_to[2], 8);
}

// A node budget makes the search stop early, deterministically: two runs
// serialize to identical bytes, including the hex-exact lower-bound and gap
// doubles. A budgeted search is an anytime search: it returns the best
// plan found when the budget runs out.
TEST(PlannerStrategy, NodeBudgetedAnytimeIsDeterministic) {
  PlannerOptions options;
  options.budget.max_nodes = 8;
  int exhausted = 0;
  for (const SuiteKernel& sk : paper_kernels()) {
    SCOPED_TRACE(sk.name);
    const auto inst = make_suite_instance(sk, 42);
    const Plan a = make_plan(inst->bound.kernel, inst->bound.stats, options);
    const Plan b = make_plan(inst->bound.kernel, inst->bound.stats, options);
    EXPECT_EQ(serialize_plan(inst->bound.kernel, a),
              serialize_plan(inst->bound.kernel, b));
    exhausted += a.budget_exhausted;
  }
  EXPECT_GE(exhausted, 4);
}

// Even a one-node budget yields a feasible, verified plan: the budget is
// checked only once a complete executable path is held.
TEST(PlannerStrategy, TinyNodeBudgetStillReturnsFeasiblePlan) {
  PlannerOptions options;
  options.budget.max_nodes = 1;
  for (const SuiteKernel& sk : paper_kernels()) {
    SCOPED_TRACE(sk.name);
    const auto inst = make_suite_instance(sk, 42);
    const Plan plan =
        make_plan(inst->bound.kernel, inst->bound.stats, options);
    EXPECT_GT(plan.flops, 0.0);
    EXPECT_GE(plan.optimality_gap, 0.0);
    EXPECT_NO_THROW(verify_plan_or_throw(inst->bound.kernel, plan, options,
                                         &inst->bound.stats));
  }
}

// The reported diagnostics are honest under any budget: a search the
// budget did not stop has proven its cheapest path (gap 0), and the lower
// bound never exceeds the cheapest executable path's flops — so it is at
// most the cheapest path the search found, and the chosen plan's flops.
TEST(PlannerStrategy, BudgetDiagnosticsBoundTheCheapestPath) {
  for (const SuiteKernel& sk : paper_kernels()) {
    const auto inst = make_suite_instance(sk, 42);
    std::vector<double> flops;
    executable_paths(inst->bound.kernel, inst->bound.stats, nullptr, &flops);
    ASSERT_FALSE(flops.empty());
    for (const std::int64_t nodes : {0, 1, 2, 4, 8, 16}) {
      SCOPED_TRACE(sk.name + " / max_nodes " + std::to_string(nodes));
      PlannerOptions options;
      options.budget.max_nodes = nodes;
      const Plan plan =
          make_plan(inst->bound.kernel, inst->bound.stats, options);
      if (!plan.budget_exhausted) {
        EXPECT_EQ(plan.optimality_gap, 0.0);
        EXPECT_EQ(plan.flops_lower_bound, flops.front());
      }
      EXPECT_GT(plan.flops_lower_bound, 0.0);
      EXPECT_LE(plan.flops_lower_bound, flops.front());
      EXPECT_LE(plan.flops_lower_bound, plan.flops);
      EXPECT_GE(plan.optimality_gap, 0.0);
      if (nodes == 0) {
        EXPECT_FALSE(plan.budget_exhausted);
      }
    }
  }
}

// With no nonzeros every path costs 0 flops, so the cheapest path found
// meets the lower bound: the gap is exactly 0 (not 0/0 - 1), with and
// without a budget, and it survives a plan artifact round trip. The plan
// still runs and leaves a zero output.
TEST(PlannerStrategy, EmptyTensorHasZeroGap) {
  for (const SuiteKernel& sk : paper_kernels()) {
    const auto inst = make_suite_instance(sk, 42);
    CooTensor empty(inst->sparse.dims());
    empty.sort_dedup();
    std::vector<const DenseTensor*> dense;
    for (const DenseTensor& f : inst->factors) dense.push_back(&f);
    const BoundKernel bound = spttn::bind(sk.expr, empty, dense);
    for (const std::int64_t nodes : {0, 8}) {
      SCOPED_TRACE(sk.name + " / max_nodes " + std::to_string(nodes));
      PlannerOptions options;
      options.budget.max_nodes = nodes;
      const Plan plan = make_plan(bound.kernel, bound.stats, options);
      EXPECT_EQ(plan.flops, 0.0);
      EXPECT_EQ(plan.flops_lower_bound, 0.0);
      EXPECT_EQ(plan.optimality_gap, 0.0);
      const LoadedPlan loaded =
          deserialize_plan(serialize_plan(bound.kernel, plan));
      EXPECT_EQ(loaded.plan.optimality_gap, 0.0);
      if (bound.kernel.output_is_sparse()) {
        EXPECT_NO_THROW(run_plan(bound, plan, nullptr, {}));
      } else {
        DenseTensor out = make_output(bound);
        out.fill(7.0);
        run_plan(bound, plan, &out, {});
        EXPECT_EQ(out.norm(), 0.0);
      }
    }
  }
}

// An order-8 random network plans under a node budget, and the budget
// stops the search before it proves the cheapest path. The budget is
// checked only once a complete path is held, which on this network takes
// far more than 128 expansions of prefixes that cannot complete. make_plan
// verifies every budgeted plan, so a successful return is also the
// verifier-clean guarantee.
TEST(PlannerStrategy, BudgetedAnytimePlansOrderEightNetwork) {
  Rng rng(2024);
  const GeneratedNetwork net = random_network(8, 3, 3, rng);
  const auto inst = make_suite_instance(to_suite(net, 0.002), 42);
  ASSERT_GE(inst->bound.kernel.num_inputs(), 8);

  PlannerOptions options;
  options.budget.max_nodes = 128;
  const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats, options);
  EXPECT_TRUE(plan.budget_exhausted);
  EXPECT_GE(plan.nodes_expanded, 128);
  EXPECT_GT(plan.flops, 0.0);
  EXPECT_GE(plan.optimality_gap, 0.0);
  EXPECT_GT(plan.flops_lower_bound, 0.0);
  EXPECT_LE(plan.flops_lower_bound, plan.flops);
}

// Differential check for the generated networks at small extents: the
// fused executor must agree with the unfactorized all-at-once reference on
// an order-6 random network and a tensor-train chain — both beyond the
// hand-written paper suite.
TEST(PlannerStrategy, GeneratedNetworksMatchUnfactorizedReference) {
  std::vector<GeneratedNetwork> nets;
  Rng rng(77);
  nets.push_back(random_network(6, 3, 2, rng));
  nets.push_back(tensor_train_network(6, 3, 2));
  for (const GeneratedNetwork& net : nets) {
    SCOPED_TRACE(net.name + ": " + net.expr);
    const auto inst = make_suite_instance(to_suite(net, 0.05), 42);
    const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats);
    FusedExecutor exec(inst->bound.kernel, plan);
    DenseTensor fused = make_output(inst->bound);
    ExecArgs args;
    args.sparse = &inst->bound.csf;
    args.dense = inst->bound.dense;
    args.out_dense = &fused;
    exec.execute(args);

    UnfactorizedExecutor reference(inst->bound.kernel);
    DenseTensor unf = make_output(inst->bound);
    reference.execute(inst->bound.csf, inst->bound.dense, &unf, {});
    EXPECT_LT(fused.max_abs_diff(unf), 1e-9);
    EXPECT_GT(fused.norm(), 0.0);
  }
}

// Generator determinism: the same seed must reproduce the same network
// (the network tests and goldens depend on it), and the deterministic TT
// chain must not consume randomness at all.
TEST(PlannerStrategy, NetworkGeneratorsAreDeterministic) {
  Rng a(5);
  Rng b(5);
  const GeneratedNetwork na = random_network(8, 4, 3, a);
  const GeneratedNetwork nb = random_network(8, 4, 3, b);
  EXPECT_EQ(na.expr, nb.expr);
  EXPECT_EQ(na.dims, nb.dims);
  EXPECT_EQ(na.sparse_dims, nb.sparse_dims);
  EXPECT_EQ(tensor_train_network(6, 3, 2).expr,
            tensor_train_network(6, 3, 2).expr);
}

// Cache-key semantics: the node budget can change the plan, so it keys the
// cache — two budgets never alias, and a budget never aliases the exact
// search — while verify, which never changes the plan, does not.
TEST(PlannerStrategy, CacheHashKeysNodeBudget) {
  const PlannerOptions exact;
  const std::uint64_t base = planner_options_hash(exact);

  PlannerOptions toggles = exact;
  toggles.verify = true;
  EXPECT_EQ(planner_options_hash(toggles), base);

  PlannerOptions budgeted = exact;
  budgeted.budget.max_nodes = 64;
  const std::uint64_t budget_base = planner_options_hash(budgeted);
  EXPECT_NE(budget_base, base);
  PlannerOptions other = budgeted;
  other.budget.max_nodes = 128;
  EXPECT_NE(planner_options_hash(other), budget_base);
  other = budgeted;
  other.verify = true;
  EXPECT_EQ(planner_options_hash(other), budget_base);
}

}  // namespace
}  // namespace spttn
