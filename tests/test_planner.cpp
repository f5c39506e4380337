#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "core/planner.hpp"
#include "exec/reference.hpp"
#include "tensor/generate.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

TEST(Planner, Ttmc3PicksFactorizedFusedNest) {
  // Paper Section 7 (TTMc): SpTTN-Cyclops contracts T with V, then U,
  // fusing i and j with an intermediate of dimension S.
  const auto inst = testing::make_instance(paper_kernels()[2], 1);
  PlannerOptions opts;
  opts.buffer_dim_bound = 1;
  const Plan plan = plan_kernel(inst->bound, opts);
  EXPECT_EQ(plan.path.num_terms(), 2);
  EXPECT_LE(plan.tree.max_buffer_dim(), 1);
  // The intermediate spans exactly one dense index.
  const Kernel& k = inst->bound.kernel;
  EXPECT_EQ(plan.tree.buffers()[0].indices.size(), 1u);
  const int buf_id = plan.tree.buffers()[0].indices[0];
  EXPECT_LT(k.csf_level(buf_id), 0);  // a dense index
  // Loop depth 4 (Figure 1b/1c), not 5 (Figure 1d).
  EXPECT_EQ(plan.tree.max_depth(), 4);
}

TEST(Planner, AllModeTtmcBoundControlsNestShape) {
  // Paper Section 7 "Impact of intermediate tensor dimension": with bound 2
  // the chosen nest has buffers of sizes U and S x U-like (dims 1 and 2);
  // with bound 1 the buffers become scalar and 1-dimensional and the dense
  // index joins the sparse prefix.
  const auto inst = testing::make_instance(paper_kernels()[5], 2);
  PlannerOptions bound2;
  bound2.buffer_dim_bound = 2;
  bound2.allow_bound_relaxation = false;
  const Plan p2 = plan_kernel(inst->bound, bound2);
  EXPECT_EQ(p2.tree.max_buffer_dim(), 2);

  PlannerOptions bound1;
  bound1.buffer_dim_bound = 1;
  bound1.allow_bound_relaxation = false;
  const Plan p1 = plan_kernel(inst->bound, bound1);
  EXPECT_LE(p1.tree.max_buffer_dim(), 1);
  // Bound-2 nest offloads more independent dense loops.
  EXPECT_LT(p2.cost.secondary, p1.cost.secondary);
}

TEST(Planner, PlansExecuteCorrectlyForAllKernels) {
  for (std::size_t i = 0; i < paper_kernels().size(); ++i) {
    const auto inst = testing::make_instance(paper_kernels()[i], 100 + i);
    const Kernel& k = inst->bound.kernel;
    const Plan plan = plan_kernel(inst->bound);
    if (k.output_is_sparse()) {
      std::vector<double> got(static_cast<std::size_t>(inst->sparse.nnz()));
      std::vector<double> want(got.size());
      run_plan(inst->bound, plan, nullptr, got);
      reference_execute(k, inst->sparse, inst->dense_slots(), nullptr, want);
      for (std::size_t e = 0; e < got.size(); ++e) {
        ASSERT_NEAR(got[e], want[e], 1e-9) << paper_kernels()[i].name;
      }
    } else {
      DenseTensor got = make_output(inst->bound);
      DenseTensor want = make_output(inst->bound);
      run_plan(inst->bound, plan, &got, {});
      reference_execute(k, inst->sparse, inst->dense_slots(), &want, {});
      ASSERT_LT(want.max_abs_diff(got), 1e-9) << paper_kernels()[i].name;
    }
  }
}

TEST(Planner, ChoosesAsymptoticallyOptimalPathGroup) {
  // The chosen path's FLOPs must equal the minimum over executable paths.
  const auto inst = testing::make_instance(paper_kernels()[2], 3);
  const Kernel& k = inst->bound.kernel;
  const Plan plan = plan_kernel(inst->bound);
  const auto paths = executable_paths(k, inst->bound.stats);
  double best = -1;
  for (const auto& p : paths) {
    const double f = path_flops(k, p, inst->bound.stats);
    if (best < 0 || f < best) best = f;
  }
  EXPECT_NEAR(plan.flops, best, best * 0.3);
}

TEST(Planner, BoundZeroRelaxesWhenAllowed) {
  const auto inst = testing::make_instance(paper_kernels()[2], 4);
  PlannerOptions opts;
  opts.buffer_dim_bound = 0;
  opts.allow_bound_relaxation = true;
  const Plan plan = plan_kernel(inst->bound, opts);
  // TTMc admits a scalar-buffer nest (Listing 4), so bound 0 is feasible
  // without relaxation.
  EXPECT_EQ(plan.buffer_dim_bound, 0);
  EXPECT_EQ(plan.tree.max_buffer_dim(), 0);
}

TEST(Planner, BoundZeroRelaxesToTheLeastFeasibleBound) {
  // No ttmc4 or tttc4 nest fits scalar buffers: relaxation from bound 0
  // must land on exactly bound 1 and report it, and without relaxation
  // the planner must throw. mttkrp3 has a scalar-buffer nest, so it stays
  // at bound 0.
  for (const std::uint64_t seed : {5, 42}) {
    for (const std::size_t k : {0, 3, 6}) {  // mttkrp3, ttmc4, tttc4
      SCOPED_TRACE(paper_kernels()[k].name + " seed " +
                   std::to_string(seed));
      const auto inst = testing::make_instance(paper_kernels()[k], seed);
      const int want = k == 0 ? 0 : 1;
      PlannerOptions opts;
      opts.buffer_dim_bound = 0;
      const Plan plan = plan_kernel(inst->bound, opts);
      EXPECT_EQ(plan.buffer_dim_bound, want);
      EXPECT_EQ(plan.tree.max_buffer_dim(), want);
      if (k == 0) continue;
      opts.allow_bound_relaxation = false;
      try {
        plan_kernel(inst->bound, opts);
        ADD_FAILURE() << "planned without relaxation";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("no feasible loop nest"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// A relaxed plan counts the DPs of both passes. Recounted here from the
// held paths: the first pass runs the configured DP at the initial bound on
// the cheapest flop group (none feasible); the second runs MaxBufferDimCost
// on every held path, then the configured DP at the least bound on the
// paths of the groups up to the first path that meets it.
TEST(Planner, RelaxedPlanCountsBothPasses) {
  const auto inst = testing::make_instance(paper_kernels()[3], 42);  // ttmc4
  const Kernel& k = inst->bound.kernel;
  const SparsityStats& stats = inst->bound.stats;
  PlannerOptions opts;
  opts.buffer_dim_bound = 0;
  const Plan plan = plan_kernel(inst->bound, opts);
  ASSERT_EQ(plan.buffer_dim_bound, 1) << "precondition: the plan relaxes";

  std::vector<double> flops;
  const std::vector<ContractionPath> paths =
      executable_paths(k, stats, nullptr, &flops);
  const std::size_t held =
      std::min(paths.size(), static_cast<std::size_t>(kMaxPathsSearched));
  DpOptions dp_options;
  dp_options.restrict_csf_order = opts.restrict_csf_order;
  int searched = 0;
  int feasible = 0;
  std::int64_t subproblems = 0;
  std::int64_t evaluations = 0;
  const auto dp = [&](std::size_t p, const TreeCost& cost) {
    const DpResult r = optimal_order(k, paths[p], cost, dp_options);
    ++searched;
    subproblems += r.subproblems;
    evaluations += r.evaluations;
    return r;
  };
  const auto group_end = [&](std::size_t begin) {
    std::size_t end = begin + 1;
    while (end < held && flops[end] <= flops[begin] * kFlopGroupTolerance) {
      ++end;
    }
    return end;
  };

  const std::unique_ptr<TreeCost> at0 = make_cost_model(opts, &stats);
  for (std::size_t p = 0; p < group_end(0); ++p) {
    EXPECT_FALSE(dp(p, *at0).feasible);
  }

  std::vector<double> least_dim(held);
  for (std::size_t p = 0; p < held; ++p) {
    const DpResult r = dp(p, MaxBufferDimCost());
    least_dim[p] = r.feasible ? r.best_cost.primary
                              : std::numeric_limits<double>::infinity();
  }
  const double bound = *std::min_element(least_dim.begin(), least_dim.end());
  ASSERT_EQ(bound, 1.0);
  std::size_t first_meeting = 0;
  while (least_dim[first_meeting] > bound) ++first_meeting;
  std::size_t end = 0;
  while (end <= first_meeting) end = group_end(end);
  PlannerOptions relaxed = opts;
  relaxed.buffer_dim_bound = 1;
  const std::unique_ptr<TreeCost> at1 = make_cost_model(relaxed, &stats);
  for (std::size_t p = 0; p < end; ++p) {
    if (least_dim[p] <= bound) feasible += dp(p, *at1).feasible;
  }

  EXPECT_EQ(plan.paths_searched, searched);
  EXPECT_EQ(plan.paths_feasible, feasible);
  EXPECT_EQ(plan.dp_subproblems, subproblems);
  EXPECT_EQ(plan.dp_evaluations, evaluations);
}

TEST(Planner, DiagnosticsPopulated) {
  const auto inst = testing::make_instance(paper_kernels()[0], 6);
  const Plan plan = plan_kernel(inst->bound);
  EXPECT_EQ(plan.paths_total, 3);       // count_paths(3)
  EXPECT_EQ(plan.paths_executable, 2);  // (T*C)*B and (B*C)*T
  EXPECT_GE(plan.paths_searched, 1);
  // The group search must report how many searched paths were feasible —
  // the chosen plan implies at least one — and its DP effort.
  EXPECT_GE(plan.paths_feasible, 1);
  EXPECT_LE(plan.paths_feasible, plan.paths_searched);
  EXPECT_GT(plan.dp_subproblems, 0);
  EXPECT_GT(plan.dp_evaluations, 0);
  const std::string desc = plan.describe(inst->bound.kernel);
  EXPECT_NE(desc.find("kernel:"), std::string::npos);
  EXPECT_NE(desc.find("for"), std::string::npos);
}

TEST(Planner, UnplannableKernelThrows) {
  // A kernel whose only input is sparse has no contraction path.
  CooTensor t({4, 4});
  t.push_back({1, 2}, 1.0);
  t.sort_dedup();
  const BoundKernel bound = bind("S(i,j) = T(i,j)", t, {});
  EXPECT_THROW(plan_kernel(bound), Error);
}

TEST(Planner, CostModelFactoryCoversAllKinds) {
  PlannerOptions opts;
  for (CostKind kind :
       {CostKind::kMaxBufferDim, CostKind::kMaxBufferSize,
        CostKind::kCacheMiss, CostKind::kBoundedBufferBlas}) {
    opts.cost = kind;
    const auto model = make_cost_model(opts, nullptr);
    ASSERT_NE(model, nullptr);
    EXPECT_FALSE(model->name().empty());
  }
}

// The parallel group search must be a pure speedup: same chosen plan (path,
// order, cost) and identical search counts on a one-lane pool (waves of one
// group, run inline) as on wider pools (growing waves fanned out), for
// every kernel family. DP results merge in path order, so this holds by
// construction — the test pins the contract.
struct PlannerSearchConcurrency : ::testing::TestWithParam<int> {};

TEST_P(PlannerSearchConcurrency, ParallelSearchMatchesSequential) {
  const int kernel_idx = GetParam();
  const auto inst = testing::make_instance(
      paper_kernels()[static_cast<std::size_t>(kernel_idx)],
      7000 + kernel_idx);
  const Plan seq = [&] {
    testing::ScopedLanes one(1);
    return plan_kernel(inst->bound);
  }();
  for (int lanes : {2, 4, 16}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    testing::ScopedLanes pool(lanes);
    const Plan par = plan_kernel(inst->bound);
    const Kernel& k = inst->bound.kernel;
    EXPECT_EQ(par.path.to_string(k), seq.path.to_string(k));
    EXPECT_EQ(order_to_string(k, par.order), order_to_string(k, seq.order));
    EXPECT_TRUE(par.cost == seq.cost)
        << par.cost.to_string() << " vs " << seq.cost.to_string();
    EXPECT_EQ(par.flops, seq.flops);
    EXPECT_EQ(par.buffer_dim_bound, seq.buffer_dim_bound);
    EXPECT_EQ(par.paths_total, seq.paths_total);
    EXPECT_EQ(par.paths_executable, seq.paths_executable);
    EXPECT_EQ(par.paths_searched, seq.paths_searched);
    EXPECT_EQ(par.paths_feasible, seq.paths_feasible);
    EXPECT_EQ(par.dp_subproblems, seq.dp_subproblems);
    EXPECT_EQ(par.dp_evaluations, seq.dp_evaluations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PlannerSearchConcurrency, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int>& info) {
      return paper_kernels()[static_cast<std::size_t>(info.param)].name;
    });

// executable_paths (and its FLOP estimates) must not depend on the pool's
// lane count, on a fresh SparsityStats as well.
TEST(Planner, ParallelExecutablePathsMatchSequential) {
  for (int kernel_idx : {0, 2, 4, 6}) {
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        7700 + kernel_idx);
    const Kernel& k = inst->bound.kernel;
    int total_seq = 0;
    std::vector<double> flops_seq;
    const auto seq = [&] {
      testing::ScopedLanes one(1);
      return executable_paths(k, inst->bound.stats, &total_seq, &flops_seq);
    }();
    for (int lanes : {2, 4, 16}) {  // real lanes even on 1-core CI boxes
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      testing::ScopedLanes pool(lanes);
      int total_par = 0;
      std::vector<double> flops_par;
      const SparsityStats cold = SparsityStats::from_coo(inst->sparse);
      const auto par = executable_paths(k, cold, &total_par, &flops_par);
      EXPECT_EQ(total_seq, total_par);
      EXPECT_EQ(flops_seq, flops_par);
      ASSERT_EQ(seq.size(), par.size());
      for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].to_string(k), par[i].to_string(k)) << "path " << i;
      }
    }
  }
}

// TTTP and the mode-1 MTTKRP on `t` must keep every sparse mode on the CSF,
// record the per-term FLOP count of the nest that runs, and still compute
// the right outputs.
void expect_sparse_modes_on_the_csf(const CooTensor& t, Rng& rng) {
  constexpr std::int64_t kRank = 8;
  std::vector<DenseTensor> factors;
  for (int m = 0; m < t.order(); ++m) {
    factors.push_back(random_dense({t.dim(m), kRank}, rng));
  }
  struct Case {
    const char* expr;
    std::vector<const DenseTensor*> dense;
  };
  const Case cases[] = {
      {"S(i0,i1,i2) = T(i0,i1,i2)*U0(i0,r)*U1(i1,r)*U2(i2,r)",
       {&factors[0], &factors[1], &factors[2]}},
      {"M(j,r) = T(i,j,k)*A(i,r)*C(k,r)", {&factors[0], &factors[2]}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr);
    const BoundKernel bound = spttn::bind(c.expr, t, c.dense);
    const Kernel& k = bound.kernel;
    const Plan plan = plan_kernel(bound);

    for (const LoopTree::Node& n : plan.tree.nodes()) {
      EXPECT_FALSE(!n.sparse && k.csf_level(n.index) >= 0)
          << "sparse mode " << k.index_name(n.index)
          << " runs as a dense loop\n"
          << plan.describe(k);
    }

    // 2 · prefix_nnz(p) · (extent of every other referenced index) per
    // term, p the longest CSF prefix inside the term's sparse refs.
    const auto& csf_order = k.sparse_ref().idx;
    double want_flops = 0;
    for (const PathTerm& term : plan.path.terms) {
      std::size_t p = 0;
      while (p < csf_order.size() && term.sparse_refs.contains(csf_order[p])) {
        ++p;
      }
      double iters =
          p == 0 ? 1.0 : static_cast<double>(t.nnz_prefix(static_cast<int>(p)));
      for (int id : term.refs.elements()) {
        const auto first = csf_order.begin();
        const auto last = first + static_cast<std::ptrdiff_t>(p);
        if (std::find(first, last, id) == last) {
          iters *= static_cast<double>(k.index_dim(id));
        }
      }
      want_flops += 2.0 * iters;
    }
    EXPECT_DOUBLE_EQ(plan.flops, want_flops);

    if (k.output_is_sparse()) {
      std::vector<double> got(static_cast<std::size_t>(t.nnz()));
      std::vector<double> want(got.size());
      run_plan(bound, plan, nullptr, got);
      reference_execute(k, t, bound.dense, nullptr, want);
      for (std::size_t e = 0; e < got.size(); ++e) {
        ASSERT_NEAR(got[e], want[e], 1e-9) << "nonzero " << e;
      }
    } else {
      DenseTensor got = make_output(bound);
      DenseTensor want = make_output(bound);
      run_plan(bound, plan, &got, {});
      reference_execute(k, t, bound.dense, &want, {});
      EXPECT_LT(want.max_abs_diff(got), 1e-9);
    }
  }
}

// On a tensor with few roots and a long last mode (the darpa shape), the
// term U0(i0,r)*U2(i2,r) can only run i2 densely under i0. Charged as if it
// iterated nnz(i0,i2), it won the FLOP ranking, and TTTP and the mode-1
// MTTKRP filled a dense (i2, r) buffer per root. On the nell-2 shape (few
// roots, a leaf extent larger than the nonzeros per root) the FLOP ranking
// was right, but the fill path stays inside the 3x flop group, where its
// dense i2 loop won the cost model as a BLAS loop.
TEST(Planner, LongLastModeKeepsSparseModesOnTheCsf) {
  {
    SCOPED_TRACE("darpa shape");
    Rng rng(7);
    expect_sparse_modes_on_the_csf(
        hierarchical_coo({40, 40, 20000}, 8, {20, 4}, rng), rng);
  }
  {
    SCOPED_TRACE("nell-2 shape");
    Rng rng(7);
    expect_sparse_modes_on_the_csf(
        hierarchical_coo({60, 60, 300}, 10, {20, 8}, rng), rng);
  }
}

}  // namespace
}  // namespace spttn
