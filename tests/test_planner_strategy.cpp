// Planner strategies: both path sources feed one nest selector, whose plans
// must match the checked-in goldens byte for byte on one pool lane and on
// four. The anytime source must be deterministic under a node budget,
// feasible under any budget, flop-optimal when uncapped, verifier-clean on
// networks the exact search cannot touch, and correctly keyed in the
// kernel cache.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
// every lint option set. The anytime sets pin the anytime path source the
// same way (their goldens double as a determinism regression). Re-record
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

// select_nest merges per-path DP results in path order for both path
// sources, so neither a one-lane pool (inline waves of one group) nor a
// four-lane pool (growing waves fanned out) may change a byte.
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

// Uncapped, the anytime search must land on the exact strategy's flop
// choice on every paper kernel (the pruned BFS with Merkle dedup visits a
// representative of every contraction tree, and both feed the same
// select_nest), and prove it: zero gap, budget not exhausted. At buffer
// bound 0 some kernels must relax the bound, and both sources must relax
// to the same bound and cost.
TEST(PlannerStrategy, UncappedAnytimeMatchesExactFlops) {
  PlannerOptions bound0;
  bound0.buffer_dim_bound = 0;
  for (const PlannerOptions& exact_opts : {PlannerOptions{}, bound0}) {
    PlannerOptions anytime = exact_opts;
    anytime.strategy = StrategyKind::kAnytime;
    for (const SuiteKernel& sk : paper_kernels()) {
      SCOPED_TRACE(sk.name + " / bound " +
                   std::to_string(exact_opts.buffer_dim_bound));
      const auto inst = make_suite_instance(sk, 42);
      const Plan exact =
          make_plan(inst->bound.kernel, inst->bound.stats, exact_opts);
      const Plan any =
          make_plan(inst->bound.kernel, inst->bound.stats, anytime);
      EXPECT_EQ(any.flops, exact.flops);
      EXPECT_EQ(any.optimality_gap, 0.0);
      EXPECT_FALSE(any.budget_exhausted);
      EXPECT_EQ(any.strategy, StrategyKind::kAnytime);
      EXPECT_GT(any.nodes_expanded, 0);
      if (exact_opts.buffer_dim_bound == 0) {
        EXPECT_EQ(any.buffer_dim_bound, exact.buffer_dim_bound);
        EXPECT_TRUE(any.cost == exact.cost)
            << any.cost.to_string() << " vs " << exact.cost.to_string();
      }
    }
  }
}

// A node budget plus a fixed seed makes the whole anytime pipeline (greedy
// restarts, beam truncation, incumbent pruning, gap computation)
// deterministic: two runs serialize to identical bytes, including the
// hex-exact lower-bound and gap doubles.
TEST(PlannerStrategy, NodeBudgetedAnytimeIsDeterministic) {
  PlannerOptions options;
  options.strategy = StrategyKind::kAnytime;
  options.budget.max_nodes = 64;
  options.anytime_seed = 7;
  for (int kernel_idx : {0, 4, 6}) {  // mttkrp3, tttp3, tttc4
    const SuiteKernel sk =
        paper_kernels()[static_cast<std::size_t>(kernel_idx)];
    SCOPED_TRACE(sk.name);
    const auto inst = make_suite_instance(sk, 42);
    const Plan a = make_plan(inst->bound.kernel, inst->bound.stats, options);
    const Plan b = make_plan(inst->bound.kernel, inst->bound.stats, options);
    EXPECT_EQ(serialize_plan(inst->bound.kernel, a),
              serialize_plan(inst->bound.kernel, b));
  }
}

// Even a budget too small for any BFS progress must yield a feasible,
// verified plan: the greedy restarts (and, failing those, frontier
// completion) guarantee an executable path before the DP runs.
TEST(PlannerStrategy, TinyNodeBudgetStillReturnsFeasiblePlan) {
  PlannerOptions options;
  options.strategy = StrategyKind::kAnytime;
  options.budget.max_nodes = 1;
  for (const SuiteKernel& sk : paper_kernels()) {
    SCOPED_TRACE(sk.name);
    const auto inst = make_suite_instance(sk, 42);
    const Plan plan =
        make_plan(inst->bound.kernel, inst->bound.stats, options);
    EXPECT_GT(plan.flops, 0.0);
    EXPECT_GE(plan.optimality_gap, 0.0);
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

// The acceptance scenario: an order-8 random network whose path space the
// exact enumeration cannot finish in any reasonable time (n inputs admit
// n!(n-1)!/2^(n-1) ordered pairwise paths — over 1.5M at n=8, tens of
// billions at n=9; the exact strategy *estimates flops for every one*
// before filtering). A 50ms/4k-node budget must still return a plan, and
// because make_plan always verifies anytime plans, a successful return IS
// the verifier-clean guarantee.
TEST(PlannerStrategy, BudgetedAnytimePlansOrderEightNetwork) {
  Rng rng(2024);
  const GeneratedNetwork net = random_network(8, 3, 3, rng);
  const auto inst = make_suite_instance(to_suite(net, 0.002), 42);
  const int n = inst->bound.kernel.num_inputs();
  ASSERT_GE(n, 8);
  // The justification that exact search is off the table at this order.
  EXPECT_GE(count_paths(8), std::uint64_t{1500000});

  PlannerOptions options;
  options.strategy = StrategyKind::kAnytime;
  options.budget.max_millis = 50;
  options.budget.max_nodes = 4096;
  const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats, options);
  EXPECT_EQ(plan.strategy, StrategyKind::kAnytime);
  EXPECT_GT(plan.flops, 0.0);
  EXPECT_GE(plan.optimality_gap, 0.0);
  EXPECT_GT(plan.flops_lower_bound, 0.0);
}

// Differential check for the generated networks at small extents: the
// anytime-planned fused executor must agree with the unfactorized
// all-at-once reference on an order-6 random network and a tensor-train
// chain — both beyond the hand-written paper suite.
TEST(PlannerStrategy, GeneratedNetworksMatchUnfactorizedReference) {
  PlannerOptions anytime;
  anytime.strategy = StrategyKind::kAnytime;
  std::vector<GeneratedNetwork> nets;
  Rng rng(77);
  nets.push_back(random_network(6, 3, 2, rng));
  nets.push_back(tensor_train_network(6, 3, 2));
  for (const GeneratedNetwork& net : nets) {
    SCOPED_TRACE(net.name + ": " + net.expr);
    const auto inst = make_suite_instance(to_suite(net, 0.05), 42);
    const Plan plan =
        make_plan(inst->bound.kernel, inst->bound.stats, anytime);
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
// (the anytime tests and goldens depend on it), and the deterministic TT
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

// Cache-key semantics: anytime knobs are inert under the exact strategy —
// toggling them must hash identically (no cache fragmentation, persisted
// plan artifacts stay addressable) — while under the anytime strategy the
// budget, seed, restarts and beam all select the plan and must key it.
TEST(PlannerStrategy, CacheHashKeysAnytimeFieldsOnlyUnderAnytime) {
  const PlannerOptions exact;
  const std::uint64_t base = planner_options_hash(exact);

  PlannerOptions inert = exact;
  inert.anytime_seed = 999;
  inert.anytime_restarts = 17;
  inert.anytime_beam = 3;
  inert.budget.max_nodes = 5;
  inert.budget.max_millis = 123;
  EXPECT_EQ(planner_options_hash(inert), base)
      << "anytime knobs fragmented the exact cache";

  // verify stays excluded regardless of strategy (it does not change the
  // chosen plan).
  PlannerOptions toggles = exact;
  toggles.verify = true;
  EXPECT_EQ(planner_options_hash(toggles), base);

  PlannerOptions anytime = exact;
  anytime.strategy = StrategyKind::kAnytime;
  const std::uint64_t any_base = planner_options_hash(anytime);
  EXPECT_NE(any_base, base);

  PlannerOptions variant = anytime;
  variant.budget.max_nodes = 64;
  EXPECT_NE(planner_options_hash(variant), any_base);
  variant = anytime;
  variant.budget.max_millis = 50;
  EXPECT_NE(planner_options_hash(variant), any_base);
  variant = anytime;
  variant.anytime_seed = 7;
  EXPECT_NE(planner_options_hash(variant), any_base);
  variant = anytime;
  variant.anytime_restarts = 2;
  EXPECT_NE(planner_options_hash(variant), any_base);
  variant = anytime;
  variant.anytime_beam = 16;
  EXPECT_NE(planner_options_hash(variant), any_base);

  PlannerOptions any_toggles = anytime;
  any_toggles.verify = true;
  EXPECT_EQ(planner_options_hash(any_toggles), any_base);
}

// Round trip: a budgeted anytime plan serializes with its trailing anytime
// record and deserializes back to the same strategy and diagnostics, while
// exact plans keep the pre-strategy byte format (no anytime line).
TEST(PlannerStrategy, PlanIoRoundTripsAnytimeRecord) {
  const auto inst = make_suite_instance(paper_kernels()[0], 42);
  PlannerOptions options;
  options.strategy = StrategyKind::kAnytime;
  options.budget.max_nodes = 64;
  const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats, options);
  const std::string text = serialize_plan(inst->bound.kernel, plan);
  EXPECT_NE(text.find("\nanytime "), std::string::npos);
  const LoadedPlan loaded = deserialize_plan(text);
  EXPECT_EQ(loaded.plan.strategy, StrategyKind::kAnytime);
  EXPECT_EQ(loaded.plan.nodes_expanded, plan.nodes_expanded);
  EXPECT_EQ(loaded.plan.restarts, plan.restarts);
  EXPECT_EQ(loaded.plan.flops_lower_bound, plan.flops_lower_bound);
  EXPECT_EQ(loaded.plan.optimality_gap, plan.optimality_gap);
  EXPECT_EQ(loaded.plan.budget_exhausted, plan.budget_exhausted);

  const Plan exact = make_plan(inst->bound.kernel, inst->bound.stats);
  EXPECT_EQ(serialize_plan(inst->bound.kernel, exact).find("\nanytime "),
            std::string::npos);
}

}  // namespace
}  // namespace spttn
