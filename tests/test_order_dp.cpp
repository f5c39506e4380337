// Property tests for Algorithm 1: the DP must agree with brute-force
// enumeration for every tree-separable cost model, on every kernel family
// and contraction path.
#include <gtest/gtest.h>

#include <memory>

#include "core/enumerate.hpp"
#include "core/order_dp.hpp"
#include "core/planner.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace spttn {
namespace {

using testing::KernelCase;
using testing::paper_kernels;

struct DpVsEnum : ::testing::TestWithParam<std::tuple<int, int>> {};

std::vector<std::unique_ptr<TreeCost>> all_cost_models(
    const SparsityStats* stats) {
  std::vector<std::unique_ptr<TreeCost>> models;
  models.push_back(std::make_unique<MaxBufferDimCost>());
  models.push_back(std::make_unique<MaxBufferSizeCost>());
  models.push_back(std::make_unique<CacheMissCost>(1));
  models.push_back(std::make_unique<CacheMissCost>(2));
  models.push_back(std::make_unique<CacheMissCost>(1, stats, true));
  models.push_back(std::make_unique<BoundedBufferBlasCost>(2, 1, stats, true));
  models.push_back(std::make_unique<BoundedBufferBlasCost>(1));
  models.push_back(std::make_unique<BoundedBufferBlasCost>(0));
  return models;
}

TEST_P(DpVsEnum, OptimumMatchesExhaustiveSearch) {
  const auto [kernel_idx, csf_restrict] = GetParam();
  const KernelCase kc = paper_kernels()[static_cast<std::size_t>(kernel_idx)];
  const auto inst = testing::make_instance(kc, 1234 + kernel_idx);
  const Kernel& kernel = inst->bound.kernel;
  const SparsityStats& stats = inst->bound.stats;

  int total = 0;
  const auto paths = executable_paths(kernel, stats, &total);
  ASSERT_FALSE(paths.empty()) << kc.name;

  EnumerateOptions eopts;
  eopts.restrict_csf_order = (csf_restrict != 0);
  // Exhaustive comparison only where the order space is small enough to
  // enumerate quickly; larger kernels fall back to the sampled dominance
  // check below.
  constexpr double kBruteForceCap = 50000;
  DpOptions dopts;
  dopts.restrict_csf_order = (csf_restrict != 0);

  int paths_checked = 0;
  const ContractionPath* oversized = nullptr;
  for (const auto& path : paths) {
    if (count_orders(kernel, path, eopts.restrict_csf_order) >
        kBruteForceCap) {
      if (oversized == nullptr) oversized = &path;
      continue;
    }
    if (++paths_checked > 4) break;
    // (the loop body below runs only for tractable paths)
    const auto models = all_cost_models(&stats);
    for (const auto& model : models) {
      const DpResult dp = optimal_order(kernel, path, *model, dopts);
      const EnumerationSearchResult brute =
          search_orders(kernel, path, *model, eopts);
      ASSERT_EQ(dp.feasible, brute.feasible)
          << kc.name << " model=" << model->name()
          << " path=" << path.to_string(kernel);
      if (!dp.feasible) continue;
      EXPECT_EQ(dp.best_cost, brute.best_cost)
          << kc.name << " model=" << model->name()
          << " path=" << path.to_string(kernel)
          << "\n dp order:    " << order_to_string(kernel, dp.best)
          << "\n brute order: " << order_to_string(kernel, brute.best);
      // The DP's reported cost must be reproducible by the evaluator.
      EXPECT_EQ(evaluate_cost(kernel, path, dp.best, *model), dp.best_cost);
      // And the returned order must be valid (and CSF-ordered when asked).
      EXPECT_TRUE(is_valid_order(path, dp.best));
      if (eopts.restrict_csf_order) {
        EXPECT_TRUE(respects_csf_order(kernel, path, dp.best));
      }
    }
  }
  // The nest selector computes the least buffer bound instead of searching
  // for it: a path has a nest under BoundedBufferBlasCost(b) exactly when
  // its MaxBufferDimCost optimum is at most b. Checked on every path at
  // every bound. A change to the fiber-coordinate charge (ROADMAP item 2)
  // must keep this equivalence, or change the selector with it.
  for (const auto& path : paths) {
    const DpResult dim =
        optimal_order(kernel, path, MaxBufferDimCost(), dopts);
    for (int b = 0; b <= kernel.num_indices(); ++b) {
      const DpResult bounded = optimal_order(
          kernel, path, BoundedBufferBlasCost(b, 1, &stats, true), dopts);
      EXPECT_EQ(bounded.feasible, dim.feasible && dim.best_cost.primary <= b)
          << kc.name << " bound " << b << " path=" << path.to_string(kernel);
    }
  }
  EXPECT_TRUE(paths_checked > 0 || oversized != nullptr);
  if (oversized != nullptr) {
    // Paths too large to enumerate (all of them for ttmc4_free and
    // tttc4_free) still get coverage: the DP optimum must dominate a
    // randomized sample of the order space — no sampled order may cost
    // less.
    const ContractionPath& path = *oversized;
    Rng rng(777 + static_cast<std::uint64_t>(kernel_idx));
    const auto samples = sample_orders(kernel, path, eopts, 200, rng);
    ASSERT_FALSE(samples.empty());
    const auto models = all_cost_models(&stats);
    for (const auto& model : models) {
      const DpResult dp = optimal_order(kernel, path, *model, dopts);
      if (dp.feasible) {
        EXPECT_EQ(evaluate_cost(kernel, path, dp.best, *model), dp.best_cost);
        EXPECT_TRUE(is_valid_order(path, dp.best));
        if (eopts.restrict_csf_order) {
          EXPECT_TRUE(respects_csf_order(kernel, path, dp.best));
        }
      }
      for (const auto& order : samples) {
        // Infeasible samples (inf primary, arbitrary lexicographic tail)
        // prove nothing — search_orders skips them too. A feasible sample
        // must never beat the DP; when the DP reports infeasible (inf),
        // any feasible sample exposes it.
        const Cost c = evaluate_cost(kernel, path, order, *model);
        if (c.is_inf()) continue;
        EXPECT_FALSE(c < dp.best_cost)
            << kc.name << " model=" << model->name()
            << " sampled order beats DP: "
            << order_to_string(kernel, order);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, DpVsEnum,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return paper_kernels()[static_cast<std::size_t>(
                                 std::get<0>(info.param))]
                 .name +
             (std::get<1>(info.param) ? "_csf" : "_free");
    });

TEST(DpSecondBest, HasDifferentRootAndMinimalCost) {
  const KernelCase kc = paper_kernels()[2];  // ttmc3
  const auto inst = testing::make_instance(kc, 99);
  const Kernel& kernel = inst->bound.kernel;
  const auto paths = executable_paths(kernel, inst->bound.stats);
  const MaxBufferSizeCost model;
  for (const auto& path : paths) {
    const DpResult dp = optimal_order(kernel, path, model);
    ASSERT_TRUE(dp.feasible);
    if (!dp.has_second) continue;
    const auto root_of = [](const LoopOrder& o) {
      for (const auto& a : o) {
        if (!a.empty()) return a.front();
      }
      return -1;
    };
    EXPECT_NE(root_of(dp.best), root_of(dp.second));
    EXPECT_FALSE(dp.second_cost < dp.best_cost);
    // Second-best equals the enumeration minimum over differently-rooted
    // orders.
    Cost best_other = Cost::inf();
    bool found = false;
    enumerate_orders(kernel, path, {}, [&](const LoopOrder& order) {
      if (order.front().front() == root_of(dp.best)) return;
      const Cost c = evaluate_cost(kernel, path, order, model);
      if (!found || c < best_other) {
        best_other = c;
        found = true;
      }
    });
    ASSERT_TRUE(found);
    EXPECT_EQ(dp.second_cost, best_other) << path.to_string(kernel);
  }
}

TEST(DpComplexity, SubproblemCountWithinBound) {
  // O(N^2 2^m) subproblems (Section 4.2).
  const KernelCase kc = paper_kernels()[3];  // ttmc4: N=3 terms, m=7 indices
  const auto inst = testing::make_instance(kc, 7);
  const Kernel& kernel = inst->bound.kernel;
  const auto paths = executable_paths(kernel, inst->bound.stats);
  ASSERT_FALSE(paths.empty());
  const MaxBufferSizeCost model;
  const DpResult dp = optimal_order(kernel, paths[0], model);
  const double n = paths[0].num_terms();
  const double m = kernel.num_indices();
  EXPECT_LE(static_cast<double>(dp.subproblems),
            (n + 1) * (n + 1) * std::pow(2.0, m));
  EXPECT_GT(dp.subproblems, 0);
}

TEST(DpCsfRestriction, RestrictedSearchNeverBeatsFree) {
  const KernelCase kc = paper_kernels()[0];  // mttkrp3
  const auto inst = testing::make_instance(kc, 21);
  const Kernel& kernel = inst->bound.kernel;
  const auto paths = executable_paths(kernel, inst->bound.stats);
  const CacheMissCost model(1);
  for (const auto& path : paths) {
    DpOptions restricted;
    restricted.restrict_csf_order = true;
    DpOptions free;
    free.restrict_csf_order = false;
    const DpResult r = optimal_order(kernel, path, model, restricted);
    const DpResult f = optimal_order(kernel, path, model, free);
    ASSERT_TRUE(r.feasible && f.feasible);
    EXPECT_FALSE(r.best_cost < f.best_cost);
  }
}

TEST(EnumerationCount, MatchesFactorialFormula) {
  // Section 4.1.2: per term |I_i|! orders, |I_i|!/k! under the CSF
  // restriction.
  const KernelCase kc = paper_kernels()[2];  // ttmc3
  const auto inst = testing::make_instance(kc, 5);
  const Kernel& kernel = inst->bound.kernel;
  const ContractionPath path = chain_path(kernel, {1, 2});
  // Terms: (T*U): 5 indices incl. 3 sparse; (X*V): 5 indices... compute via
  // the helper and check against a direct visit count.
  const double expected_free = count_orders(kernel, path, false);
  const double expected_csf = count_orders(kernel, path, true);
  std::uint64_t seen_free = 0;
  enumerate_orders(kernel, path, {.restrict_csf_order = false, .limit = 0},
                   [&](const LoopOrder&) { ++seen_free; });
  std::uint64_t seen_csf = 0;
  enumerate_orders(kernel, path, {.restrict_csf_order = true, .limit = 0},
                   [&](const LoopOrder&) { ++seen_csf; });
  EXPECT_DOUBLE_EQ(static_cast<double>(seen_free), expected_free);
  EXPECT_DOUBLE_EQ(static_cast<double>(seen_csf), expected_csf);
  EXPECT_LT(seen_csf, seen_free);
}

TEST(EnumerationSampling, SampledOrdersAreValid) {
  const KernelCase kc = paper_kernels()[5];  // all-mode ttmc3
  const auto inst = testing::make_instance(kc, 31);
  const Kernel& kernel = inst->bound.kernel;
  const auto paths = executable_paths(kernel, inst->bound.stats);
  ASSERT_FALSE(paths.empty());
  Rng rng(17);
  const auto samples = sample_orders(kernel, paths[0], {}, 50, rng);
  EXPECT_EQ(samples.size(), 50u);
  for (const auto& order : samples) {
    EXPECT_TRUE(is_valid_order(paths[0], order));
    EXPECT_TRUE(respects_csf_order(kernel, paths[0], order));
  }
}

}  // namespace
}  // namespace spttn
