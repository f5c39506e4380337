#include <gtest/gtest.h>

#include <algorithm>

#include "core/contraction_path.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"

namespace spttn {
namespace {

Kernel ttmc3() {
  Kernel k = Kernel::parse("S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)");
  for (const auto& [n, d] : std::vector<std::pair<std::string, std::int64_t>>{
           {"i", 30}, {"j", 20}, {"k", 25}, {"r", 8}, {"s", 9}}) {
    k.set_index_dim(k.index_id(n), d);
  }
  return k;
}

Kernel mttkrp3() {
  Kernel k = Kernel::parse("A(i,a) = T(i,j,k)*B(j,a)*C(k,a)");
  for (const auto& [n, d] : std::vector<std::pair<std::string, std::int64_t>>{
           {"i", 30}, {"j", 20}, {"k", 25}, {"a", 8}}) {
    k.set_index_dim(k.index_id(n), d);
  }
  return k;
}

TEST(PathCount, MatchesRecurrence) {
  // T(n) = C(n,2) T(n-1): 1, 3, 18, 180, 2700 for n = 2..6.
  EXPECT_EQ(count_paths(2), 1u);
  EXPECT_EQ(count_paths(3), 3u);
  EXPECT_EQ(count_paths(4), 18u);
  EXPECT_EQ(count_paths(5), 180u);
  EXPECT_EQ(count_paths(6), 2700u);
}

TEST(PathEnumeration, CountMatchesClosedForm) {
  for (const char* expr :
       {"A(i,a) = T(i,j,k)*B(j,a)*C(k,a)",
        "S(i,r,s,t) = T(i,j,k,l)*U(j,r)*V(k,s)*W(l,t)",
        "S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)"}) {
    const Kernel k = Kernel::parse(expr);
    const auto paths = enumerate_paths(k);
    EXPECT_EQ(paths.size(), count_paths(k.num_inputs())) << expr;
    // Paths must be pairwise distinct.
    for (std::size_t a = 0; a < paths.size(); ++a) {
      for (std::size_t b = a + 1; b < paths.size(); ++b) {
        EXPECT_FALSE(paths[a] == paths[b]);
      }
    }
  }
}

TEST(PathEnumeration, TermSemantics) {
  const Kernel k = ttmc3();
  for (const auto& p : enumerate_paths(k)) {
    ASSERT_EQ(p.num_terms(), 2);
    // Every term's output indices are contained in its refs.
    for (const auto& t : p.terms) {
      EXPECT_TRUE(t.out.subset_of(t.refs));
    }
    // The final term produces exactly the kernel output indices.
    EXPECT_EQ(p.terms.back().out, k.output_indices());
    // Each intermediate is consumed exactly once, after production.
    for (int i = 0; i + 1 < p.num_terms(); ++i) {
      const int c = p.consumer_of(i);
      EXPECT_GT(c, i);
    }
    EXPECT_EQ(p.consumer_of(p.num_terms() - 1), -1);
  }
}

TEST(PathExecutability, Ttmc3MatchesFigure1) {
  // Figure 1: contracting T with V first (then U) is executable with a
  // single CSF; contracting U with V first (Fig 1d) is also executable
  // (its only sparse-carrying term references the full prefix); but the
  // path contracting T with U first sums j out of CSF suffix order, making
  // its second term's sparse refs {i,k} — not a prefix.
  const Kernel k = ttmc3();
  const auto paths = enumerate_paths(k);
  int executable = 0;
  bool found_tu_first = false;
  for (const auto& p : paths) {
    const bool ok = p.csf_prefix_executable(k);
    if (ok) ++executable;
    const auto& t0 = p.terms[0];
    const bool tu_first = t0.lhs.kind == PathOperand::Kind::kInput &&
                          t0.rhs.kind == PathOperand::Kind::kInput &&
                          ((t0.lhs.id == 0 && t0.rhs.id == 1) ||
                           (t0.lhs.id == 1 && t0.rhs.id == 0));
    if (tu_first) {
      found_tu_first = true;
      EXPECT_FALSE(ok) << p.to_string(k);
    }
  }
  EXPECT_TRUE(found_tu_first);
  EXPECT_EQ(executable, 2);  // (T*V)*U and (U*V)*T
}

TEST(PathExecutability, MttkrpOnlyLastModeFirst) {
  // For MTTKRP, contracting T with C (the k-sharing factor) first is the
  // only prefix-executable two-step chain; T*B first leaves sparse refs
  // {i,k} in the second term.
  const Kernel k = mttkrp3();
  int executable = 0;
  for (const auto& p : enumerate_paths(k)) {
    if (p.csf_prefix_executable(k)) ++executable;
  }
  EXPECT_EQ(executable, 2);  // (T*C)*B and (B*C)*T
}

TEST(PathFlops, FactorizedTtmcCheaperThanDenseFirst) {
  const Kernel k = ttmc3();
  Rng rng(3);
  const CooTensor t = hierarchical_coo({30, 20, 25}, 25, {8.0, 5.0}, rng);
  const SparsityStats stats = SparsityStats::from_coo(t);
  const auto paths = enumerate_paths(k);
  double tv_first = 0;
  double uv_first = 0;
  for (const auto& p : paths) {
    if (!p.csf_prefix_executable(k)) continue;
    const auto& t0 = p.terms[0];
    const bool uv = t0.lhs.kind == PathOperand::Kind::kInput &&
                    t0.rhs.kind == PathOperand::Kind::kInput &&
                    t0.lhs.id != 0 && t0.rhs.id != 0;
    if (uv) {
      uv_first = path_flops(k, p, stats);
    } else {
      tv_first = path_flops(k, p, stats);
    }
  }
  ASSERT_GT(tv_first, 0);
  ASSERT_GT(uv_first, 0);
  // Contracting the two dense factors first yields a deeper loop nest
  // (Figure 1d) and more work.
  EXPECT_LT(tv_first, uv_first);
}

TEST(PathFlops, MttkrpFactorizedBeatsUnfactorizedOpCount) {
  // Paper Section 2.4.2: pairwise MTTKRP takes
  // 2 nnz(IJK) A + 2 nnz(IJ) A ops vs 3 nnz A unfactorized.
  const Kernel k = mttkrp3();
  Rng rng(4);
  const CooTensor t = hierarchical_coo({30, 20, 25}, 20, {6.0, 8.0}, rng);
  const SparsityStats stats = SparsityStats::from_coo(t);
  ContractionPath best;
  double best_flops = 0;
  for (const auto& p : enumerate_paths(k)) {
    if (!p.csf_prefix_executable(k)) continue;
    if (p.terms[0].lhs.kind == PathOperand::Kind::kInput &&
        (p.terms[0].lhs.id == 0 || p.terms[0].rhs.id == 0)) {
      best = p;
      best_flops = path_flops(k, p, stats);
    }
  }
  const double a = 8;
  const double expected =
      2.0 * static_cast<double>(t.nnz()) * a +
      2.0 * static_cast<double>(t.nnz_prefix(2)) * a;
  EXPECT_NEAR(best_flops, expected, expected * 1e-9);
}

TEST(PathFlops, DenseFactorPairPaysFullExtentOutsideCsfPrefix) {
  // U0(i0,r)*U2(i2,r) shares only i0 with the CSF prefix: the executor can
  // iterate i0 over the tree but must run i2 over its whole extent, so the
  // term costs prefix_nnz(1)·I2·R iterations, not nnz(i0,i2)·R.
  Kernel k = Kernel::parse(
      "S(i0,i1,i2) = T(i0,i1,i2)*U0(i0,r)*U1(i1,r)*U2(i2,r)");
  Rng rng(7);
  const CooTensor t = hierarchical_coo({40, 40, 20000}, 8, {20, 4}, rng);
  const double r = 8;
  for (int m = 0; m < 3; ++m) {
    k.set_index_dim(k.index_id(std::string("i").append(std::to_string(m))),
                    t.dim(m));
  }
  k.set_index_dim(k.index_id("r"), 8);
  const SparsityStats stats = SparsityStats::from_coo(t);
  const auto is_input = [](const PathOperand& op, int id) {
    return op.kind == PathOperand::Kind::kInput && op.id == id;
  };
  int found = 0;
  for (const auto& p : enumerate_paths(k)) {
    const PathTerm& t0 = p.terms[0];
    const PathTerm& t1 = p.terms[1];
    const bool u0_u2 = (is_input(t0.lhs, 1) && is_input(t0.rhs, 3)) ||
                       (is_input(t0.lhs, 3) && is_input(t0.rhs, 1));
    const bool then_u1 =
        t1.lhs.kind == PathOperand::Kind::kIntermediate && is_input(t1.rhs, 2);
    if (!u0_u2 || !then_u1) continue;
    ++found;
    ASSERT_TRUE(p.csf_prefix_executable(k)) << p.to_string(k);
    const double nnz = static_cast<double>(t.nnz());
    const double expected =
        2.0 * (static_cast<double>(stats.prefix_nnz(1)) *
                   static_cast<double>(t.dim(2)) * r +
               nnz * r + nnz);
    EXPECT_DOUBLE_EQ(path_flops(k, p, stats), expected) << p.to_string(k);
  }
  EXPECT_EQ(found, 1);
}

TEST(SparsityStats, UniformModelIsMonotone) {
  const auto s = SparsityStats::uniform({100, 100, 100}, 5000);
  EXPECT_EQ(s.prefix_nnz(0), 1);
  EXPECT_LE(s.prefix_nnz(1), s.prefix_nnz(2));
  EXPECT_LE(s.prefix_nnz(2), s.prefix_nnz(3));
  EXPECT_EQ(s.prefix_nnz(3), 5000);
  // First mode nearly saturates at 100 roots.
  EXPECT_GT(s.prefix_nnz(1), 90);
  EXPECT_LE(s.prefix_nnz(1), 100);
}

TEST(ChainPath, ExpressionOrderChain) {
  const Kernel k = ttmc3();
  const ContractionPath p = chain_path(k);
  ASSERT_EQ(p.num_terms(), 2);
  EXPECT_EQ(p.terms[0].lhs.id, 0);  // T
  EXPECT_EQ(p.terms[0].rhs.id, 1);  // U
  EXPECT_EQ(p.terms[1].rhs.id, 2);  // V
  EXPECT_TRUE(p.terms[0].carries_sparse);
  // T*U sums j away: out = {i,k,r}.
  EXPECT_EQ(p.terms[0].out.size(), 3);
  EXPECT_FALSE(p.terms[0].out.contains(k.index_id("j")));
  EXPECT_EQ(p.terms[1].out, k.output_indices());
}

TEST(ChainPath, CustomOrderMatchesEnumeratedPath) {
  const Kernel k = ttmc3();
  const ContractionPath chain = chain_path(k, {2, 1});  // T*V then *U
  const auto all = enumerate_paths(k);
  EXPECT_NE(std::find(all.begin(), all.end(), chain), all.end());
  EXPECT_TRUE(chain.csf_prefix_executable(k));
}

}  // namespace
}  // namespace spttn
