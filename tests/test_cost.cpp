#include <gtest/gtest.h>

#include <set>

#include "core/cost.hpp"
#include "core/loop_tree.hpp"
#include "core/planner.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace spttn {
namespace {

struct Ttmc3Cost : ::testing::Test {
  Kernel kernel = Kernel::parse("S(i,r,s) = T(i,j,k)*V(k,s)*U(j,r)");
  ContractionPath path;
  int i, j, k, r, s;

  void SetUp() override {
    for (const auto& [n, d] :
         std::vector<std::pair<std::string, std::int64_t>>{
             {"i", 10}, {"j", 9}, {"k", 8}, {"s", 5}, {"r", 4}}) {
      kernel.set_index_dim(kernel.index_id(n), d);
    }
    path = chain_path(kernel);
    i = kernel.index_id("i");
    j = kernel.index_id("j");
    k = kernel.index_id("k");
    r = kernel.index_id("r");
    s = kernel.index_id("s");
  }
};

TEST_F(Ttmc3Cost, BufferDimMatchesListings) {
  const MaxBufferDimCost cost;
  // Listing 3: buffer X(s) — dimension 1.
  EXPECT_DOUBLE_EQ(
      evaluate_cost(kernel, path, {{i, j, k, s}, {i, j, s, r}}, cost).primary,
      1.0);
  // Listing 4: scalar buffer — dimension 0.
  EXPECT_DOUBLE_EQ(
      evaluate_cost(kernel, path, {{i, j, s, k}, {i, j, s, r}}, cost).primary,
      0.0);
  // Listing 2 (unfused): buffer X(i,j,s) — dimension 3.
  EXPECT_DOUBLE_EQ(
      evaluate_cost(kernel, path, {{i, j, k, s}, {s, i, j, r}}, cost).primary,
      3.0);
}

TEST_F(Ttmc3Cost, BufferSizeMatchesListings) {
  const MaxBufferSizeCost cost;
  EXPECT_DOUBLE_EQ(
      evaluate_cost(kernel, path, {{i, j, k, s}, {i, j, s, r}}, cost).primary,
      5.0);  // S
  EXPECT_DOUBLE_EQ(
      evaluate_cost(kernel, path, {{i, j, s, k}, {i, j, s, r}}, cost).primary,
      1.0);  // scalar
  EXPECT_DOUBLE_EQ(
      evaluate_cost(kernel, path, {{i, j, k, s}, {s, i, j, r}}, cost).primary,
      10.0 * 9 * 5);
}

TEST_F(Ttmc3Cost, CostAgreesWithBuiltTree) {
  // evaluate_cost and LoopTree::build compute buffers independently; they
  // must agree on every order we throw at them.
  const MaxBufferDimCost dim_cost;
  const MaxBufferSizeCost size_cost;
  const std::vector<LoopOrder> orders = {
      {{i, j, k, s}, {i, j, s, r}},  {{i, j, s, k}, {i, j, s, r}},
      {{i, j, k, s}, {s, i, j, r}},  {{i, s, j, k}, {i, s, j, r}},
      {{i, j, k, s}, {i, s, j, r}},  {{s, i, j, k}, {s, i, j, r}},
  };
  for (const auto& order : orders) {
    const LoopTree tree = LoopTree::build(kernel, path, order);
    EXPECT_DOUBLE_EQ(evaluate_cost(kernel, path, order, dim_cost).primary,
                     static_cast<double>(tree.max_buffer_dim()))
        << order_to_string(kernel, order);
    EXPECT_DOUBLE_EQ(evaluate_cost(kernel, path, order, size_cost).primary,
                     static_cast<double>(tree.max_buffer_size()))
        << order_to_string(kernel, order);
  }
}

TEST_F(Ttmc3Cost, CacheMissIsOrderSensitiveAndPositive) {
  const CacheMissCost cost(1);
  const std::vector<LoopOrder> orders = {
      {{i, j, k, s}, {i, j, s, r}}, {{i, j, s, k}, {i, j, s, r}},
      {{s, i, j, k}, {s, i, j, r}}, {{i, s, j, k}, {i, s, j, r}},
  };
  std::set<double> distinct;
  for (const auto& order : orders) {
    const Cost c = evaluate_cost(kernel, path, order, cost);
    EXPECT_GT(c.primary, 0.0);
    distinct.insert(c.primary);
  }
  // The model discriminates between loop orders.
  EXPECT_GT(distinct.size(), 1u);
}

TEST_F(Ttmc3Cost, CacheMissModelScalesWithLoopExtent) {
  // phi = I(r)(tau + x): doubling a dense dimension should increase cost.
  Kernel big = Kernel::parse("S(i,r,s) = T(i,j,k)*V(k,s)*U(j,r)");
  for (const auto& [n, d] : std::vector<std::pair<std::string, std::int64_t>>{
           {"i", 10}, {"j", 9}, {"k", 8}, {"s", 10}, {"r", 4}}) {
    big.set_index_dim(big.index_id(n), d);
  }
  const ContractionPath big_path = chain_path(big);
  const CacheMissCost cost(1);
  const LoopOrder order{{i, j, k, s}, {i, j, s, r}};
  EXPECT_GT(evaluate_cost(big, big_path, order, cost).primary,
            evaluate_cost(kernel, path, order, cost).primary);
}

TEST_F(Ttmc3Cost, SparseAwareCacheUsesFanouts) {
  Rng rng(3);
  const CooTensor t = hierarchical_coo({10, 9, 8}, 8, {4.0, 3.0}, rng);
  const SparsityStats stats = SparsityStats::from_coo(t);
  const CacheMissCost dense_model(1, nullptr, false);
  const CacheMissCost sparse_model(1, &stats, true);
  const LoopOrder order{{i, j, k, s}, {i, j, s, r}};
  // Sparse-aware trip counts (fan-outs ~4, ~3) are far below the dense dims
  // (9, 8), so modeled misses shrink.
  EXPECT_LT(evaluate_cost(kernel, path, order, sparse_model).primary,
            evaluate_cost(kernel, path, order, dense_model).primary);
}

TEST_F(Ttmc3Cost, BoundedBlasFeasibility) {
  const BoundedBufferBlasCost bound1(1);
  const BoundedBufferBlasCost bound0(0);
  const LoopOrder listing3{{i, j, k, s}, {i, j, s, r}};
  const LoopOrder listing4{{i, j, s, k}, {i, j, s, r}};
  EXPECT_FALSE(evaluate_cost(kernel, path, listing3, bound1).is_inf());
  EXPECT_TRUE(evaluate_cost(kernel, path, listing3, bound0).is_inf());
  EXPECT_FALSE(evaluate_cost(kernel, path, listing4, bound0).is_inf());
}

TEST_F(Ttmc3Cost, BoundedBlasCountsIndependentDenseLoops) {
  const BoundedBufferBlasCost cost(2);
  // Listing 3 nest has 3 exclusive dense loops (s | s, r);
  // Listing 4 nest has 2 (k is sparse; s shared; trailing k?, r only... the
  // exclusive dense loops are term1's none and term2's r, plus term1's
  // nothing — expect fewer than Listing 3).
  const Cost l3 =
      evaluate_cost(kernel, path, {{i, j, k, s}, {i, j, s, r}}, cost);
  const Cost l4 =
      evaluate_cost(kernel, path, {{i, j, s, k}, {i, j, s, r}}, cost);
  EXPECT_DOUBLE_EQ(l3.secondary, -3.0);
  EXPECT_GT(l4.secondary, l3.secondary);  // fewer independent dense loops
}

/// True when `term` contracts kernel inputs `a` and `b`, in either order.
bool pair_of(const PathTerm& term, int a, int b) {
  const auto is_input = [](const PathOperand& op, int id) {
    return op.kind == PathOperand::Kind::kInput && op.id == id;
  };
  return (is_input(term.lhs, a) && is_input(term.rhs, b)) ||
         (is_input(term.lhs, b) && is_input(term.rhs, a));
}

TEST(CostValue, LexicographicOrdering) {
  const Cost a{0, -3, 100};
  const Cost b{0, -2, 1};
  const Cost c{1, -9, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a < c);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(Cost::inf().is_inf());
  EXPECT_FALSE(a.is_inf());
}

TEST(BoundedBlasFiberBuffers, ChargesBufferZeroedPerParentFiber) {
  // TTTP-3 via T*U2 -> X1(i0,i1,i2,r) and U0*U1 -> X2(i0,i1,r): with the
  // order below, X1 is written in one i2 loop and read back in a sibling
  // i2 loop, so it becomes a dense X1(i2, r) zeroed per (i0, i1) fiber —
  // one fiber-coordinate index (i2). The plan actually chosen has none.
  Kernel k = Kernel::parse(
      "S(i0,i1,i2) = T(i0,i1,i2)*U0(i0,r)*U1(i1,r)*U2(i2,r)");
  Rng rng(7);
  const CooTensor t = hierarchical_coo({40, 40, 20000}, 8, {20, 4}, rng);
  for (int m = 0; m < 3; ++m) {
    k.set_index_dim(k.index_id(std::string("i").append(std::to_string(m))),
                    t.dim(m));
  }
  k.set_index_dim(k.index_id("r"), 8);
  const SparsityStats stats = SparsityStats::from_coo(t);
  const int i0 = k.index_id("i0");
  const int i1 = k.index_id("i1");
  const int i2 = k.index_id("i2");
  const int r = k.index_id("r");
  ContractionPath t_u2_first;
  for (const auto& p : enumerate_paths(k)) {
    if (pair_of(p.terms[0], 0, 3) && pair_of(p.terms[1], 1, 2)) {
      t_u2_first = p;
    }
  }
  ASSERT_EQ(t_u2_first.num_terms(), 3);

  const PlannerOptions options;
  const auto model = make_cost_model(options, &stats);
  const LoopOrder split_i2{{i0, i1, i2, r}, {i0, i1, r}, {i0, i1, i2, r}};
  EXPECT_EQ(evaluate_cost(k, t_u2_first, split_i2, *model).primary, 1.0);

  const Plan plan = make_plan(k, stats, options);
  PlannerOptions effective = options;
  effective.buffer_dim_bound = plan.buffer_dim_bound;
  const Cost chosen = evaluate_cost(k, plan.path, plan.order,
                                    *make_cost_model(effective, &stats));
  EXPECT_EQ(chosen.primary, 0.0) << plan.describe(k);
  EXPECT_TRUE(chosen == plan.cost);
}

TEST(BoundedBlasDenseLoops, SparseModeRunAsDenseRangeIsNotABlasLoop) {
  // Mode-1 MTTKRP on the nell-2 shape (few roots, leaf extent above the
  // nonzeros per root). Contracting A*C first builds X(k, r) per root by
  // running the sparse mode k as a dense range, which term_flops charges
  // prefix_nnz(i)·K·R for. That k loop is not a BLAS loop: only the two r
  // loops count, so the lower-flop T*C-first path wins the flop group.
  Kernel k = Kernel::parse("M(j,r) = T(i,j,k)*A(i,r)*C(k,r)");
  Rng rng(7);
  const CooTensor t = hierarchical_coo({60, 60, 300}, 10, {20, 8}, rng);
  const int i = k.index_id("i");
  const int j = k.index_id("j");
  const int kk = k.index_id("k");
  const int r = k.index_id("r");
  k.set_index_dim(i, t.dim(0));
  k.set_index_dim(j, t.dim(1));
  k.set_index_dim(kk, t.dim(2));
  k.set_index_dim(r, 8);
  const SparsityStats stats = SparsityStats::from_coo(t);
  ContractionPath a_c_first;
  for (const auto& p : enumerate_paths(k)) {
    if (pair_of(p.terms[0], 1, 2)) a_c_first = p;
  }
  ASSERT_EQ(a_c_first.num_terms(), 2);

  const PlannerOptions options;
  const auto model = make_cost_model(options, &stats);
  const Cost fill = evaluate_cost(k, a_c_first, {{i, kk, r}, {i, j, kk, r}},
                                  *model);
  EXPECT_EQ(fill, (Cost{0, -2, 14074})) << fill.to_string();

  const Plan plan = make_plan(k, stats, options);
  EXPECT_TRUE(pair_of(plan.path.terms[0], 0, 2)) << plan.describe(k);
  EXPECT_EQ(plan.cost, (Cost{0, -2, 2922})) << plan.cost.to_string();
}

}  // namespace
}  // namespace spttn
