#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "exec/spttn.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf_tensor.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/generate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace spttn {
namespace {

TEST(DenseTensor, StridesRowMajor) {
  DenseTensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.strides(), (std::vector<std::int64_t>{12, 4, 1}));
  EXPECT_EQ(t.offset(std::vector<std::int64_t>{1, 2, 3}), 23);
}

TEST(DenseTensor, AtReadsAndWrites) {
  DenseTensor t({3, 3});
  t.at({1, 2}) = 7.5;
  EXPECT_DOUBLE_EQ(t.at({1, 2}), 7.5);
  EXPECT_DOUBLE_EQ(t.data()[1 * 3 + 2], 7.5);
}

TEST(DenseTensor, BoundsChecked) {
  DenseTensor t({2, 2});
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0, -1}), Error);
  EXPECT_THROW(t.at({0}), Error);
}

TEST(DenseTensor, FillAndNorm) {
  DenseTensor t({4});
  t.fill(2.0);
  EXPECT_DOUBLE_EQ(t.norm(), 4.0);
  t.zero();
  EXPECT_DOUBLE_EQ(t.norm(), 0.0);
}

TEST(DenseTensor, MaxAbsDiff) {
  DenseTensor a({3});
  DenseTensor b({3});
  a.at({1}) = 2;
  b.at({1}) = -1;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 3.0);
}

TEST(DenseTensor, ZeroDimRejected) {
  EXPECT_THROW(DenseTensor({3, 0}), Error);
}

TEST(DenseTensor, OverflowingExtentProductRejected) {
  const std::int64_t big = std::int64_t{1} << 32;
  EXPECT_THROW(DenseTensor({big, big}), Error);
}

TEST(CooTensor, SortDedupSumsDuplicates) {
  CooTensor t({4, 4});
  t.push_back({2, 1}, 1.0);
  t.push_back({0, 3}, 2.0);
  t.push_back({2, 1}, 0.5);
  t.sort_dedup();
  EXPECT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.coord(0)[0], 0);
  EXPECT_DOUBLE_EQ(t.value(1), 1.5);
}

TEST(CooTensor, PrefixCountsMatchDefinition) {
  // nnz(I1..Ik) equals the nonzero count of the tensor reduced over the
  // remaining modes (paper Section 2.2).
  Rng rng(5);
  const CooTensor t = random_coo({6, 5, 4}, 40, rng);
  std::set<std::int64_t> p1;
  std::set<std::pair<std::int64_t, std::int64_t>> p2;
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    p1.insert(t.coord(e)[0]);
    p2.insert({t.coord(e)[0], t.coord(e)[1]});
  }
  EXPECT_EQ(t.nnz_prefix(0), 1);
  EXPECT_EQ(t.nnz_prefix(1), static_cast<std::int64_t>(p1.size()));
  EXPECT_EQ(t.nnz_prefix(2), static_cast<std::int64_t>(p2.size()));
  EXPECT_EQ(t.nnz_prefix(3), t.nnz());
}

TEST(CooTensor, ProjectionCounts) {
  Rng rng(6);
  const CooTensor t = random_coo({5, 6, 7}, 60, rng);
  std::set<std::pair<std::int64_t, std::int64_t>> p02;
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    p02.insert({t.coord(e)[0], t.coord(e)[2]});
  }
  const std::vector<int> modes{0, 2};
  EXPECT_EQ(t.nnz_projection(modes), static_cast<std::int64_t>(p02.size()));
  EXPECT_EQ(t.nnz_projection(std::vector<int>{}), 1);
}

// Regression for the hash-only distinct-count bug: nnz_projection used to
// store 64-bit *hashes* of the projected coordinates, so collisions could
// silently undercount projections and skew every cost-model decision.
// Exact counting must survive adversarial coordinates: huge extents that
// overflow the packed-key fast path, values differing only in high bits,
// and bit patterns that weak mixers fold together.
TEST(CooTensor, ProjectionCountExactOnCollisionProneInput) {
  const std::int64_t big = std::int64_t{1} << 40;
  CooTensor t({big, big, big});  // 3*40 bits > 64: exercises the fallback
  // Coordinates differing only in high bits / by 2^32 multiples; several
  // entries share projections onto subsets of modes.
  const std::vector<std::vector<std::int64_t>> coords = {
      {0, 0, 0},
      {std::int64_t{1} << 32, 0, 0},
      {std::int64_t{1} << 33, 0, 0},
      {0, std::int64_t{1} << 32, 0},
      {0, 0, std::int64_t{1} << 32},
      {(std::int64_t{1} << 32) + 1, 1, 1},
      {(std::int64_t{1} << 32) + 1, 1, 2},
      {1, (std::int64_t{1} << 32) + 1, 1},
      {big - 1, big - 1, big - 1},
      {big - 1, big - 1, big - 2},
  };
  for (std::size_t e = 0; e < coords.size(); ++e) {
    t.push_back(coords[e], static_cast<double>(e) + 1.0);
  }
  // Brute-force cross-check on every non-empty mode subset.
  for (int mask = 1; mask < 8; ++mask) {
    std::vector<int> modes;
    for (int m = 0; m < 3; ++m) {
      if ((mask >> m) & 1) modes.push_back(m);
    }
    std::set<std::vector<std::int64_t>> brute;
    for (const auto& c : coords) {
      std::vector<std::int64_t> p;
      for (int m : modes) p.push_back(c[static_cast<std::size_t>(m)]);
      brute.insert(std::move(p));
    }
    EXPECT_EQ(t.nnz_projection(modes),
              static_cast<std::int64_t>(brute.size()))
        << "mode mask " << mask;
  }
}

TEST(CooTensor, ProjectionCountExactRandomizedVsBruteForce) {
  Rng rng(17);
  // Small extents take the packed fast path; the wide tensor below forces
  // the tuple fallback. Both must agree with a std::set of tuples.
  for (const std::vector<std::int64_t>& dims :
       {std::vector<std::int64_t>{9, 8, 7, 6},
        std::vector<std::int64_t>{std::int64_t{1} << 40,
                                  std::int64_t{1} << 40,
                                  std::int64_t{1} << 40, 6}}) {
    CooTensor t(dims);
    for (int e = 0; e < 200; ++e) {
      std::vector<std::int64_t> c;
      for (std::int64_t d : dims) {
        // Cluster values so projections genuinely collide across entries.
        c.push_back(rng.next_in(0, std::min<std::int64_t>(d - 1, 3)) *
                    std::max<std::int64_t>(1, d / 5));
      }
      t.push_back(c, 1.0);
    }
    for (const std::vector<int>& modes :
         {std::vector<int>{0}, std::vector<int>{1, 3}, std::vector<int>{0, 2},
          std::vector<int>{0, 1, 2, 3}}) {
      std::set<std::vector<std::int64_t>> brute;
      for (std::int64_t e = 0; e < t.nnz(); ++e) {
        std::vector<std::int64_t> p;
        for (int m : modes) p.push_back(t.coord(e)[static_cast<std::size_t>(m)]);
        brute.insert(std::move(p));
      }
      EXPECT_EQ(t.nnz_projection(modes),
                static_cast<std::int64_t>(brute.size()));
    }
  }
}

TEST(CooTensor, StructureHashIgnoresValuesTracksStructure) {
  Rng rng(23);
  CooTensor a = random_coo({6, 7, 8}, 50, rng);
  CooTensor b = a;
  for (double& v : b.values()) v *= 3.5;  // same structure, new values
  EXPECT_EQ(a.structure_hash(), b.structure_hash());
  EXPECT_NE(a.structure_hash(), 0u);

  // Any structural difference — one coordinate, dims, or nnz — changes it.
  CooTensor c({6, 7, 8});
  for (std::int64_t e = 0; e < a.nnz(); ++e) c.push_back(a.coord(e), 1.0);
  c.sort_dedup();
  EXPECT_EQ(a.structure_hash(), c.structure_hash());
  CooTensor d({6, 7, 9});
  for (std::int64_t e = 0; e < a.nnz(); ++e) d.push_back(a.coord(e), 1.0);
  d.sort_dedup();
  EXPECT_NE(a.structure_hash(), d.structure_hash());
}

TEST(CsfTensor, StructureFingerprintMatchesSourceCoo) {
  Rng rng(29);
  const CooTensor t = random_coo({9, 9, 9}, 70, rng);
  const CsfTensor csf(t);
  EXPECT_EQ(csf.structure_fingerprint(), t.structure_hash());
  // A permuted CSF is a different tree: different fingerprint.
  const CsfTensor permuted(t, {2, 0, 1});
  EXPECT_NE(permuted.structure_fingerprint(), t.structure_hash());
  EXPECT_EQ(CsfTensor().structure_fingerprint(), 0u);
}

TEST(CooTensor, PrefixRequiresSorted) {
  CooTensor t({3, 3});
  t.push_back({0, 0}, 1.0);
  EXPECT_THROW(t.nnz_prefix(1), Error);
}

TEST(CooTensor, CoordOutOfRangeRejected) {
  CooTensor t({3, 3});
  EXPECT_THROW(t.push_back({3, 0}, 1.0), Error);
  EXPECT_THROW(t.push_back({0, -1}, 1.0), Error);
}

TEST(CsfTensor, StructureMatchesManualExample) {
  CooTensor t({3, 3, 3});
  t.push_back({0, 1, 2}, 1.0);
  t.push_back({0, 1, 0}, 2.0);
  t.push_back({0, 2, 1}, 3.0);
  t.push_back({2, 0, 0}, 4.0);
  t.sort_dedup();
  const CsfTensor csf(t);
  EXPECT_EQ(csf.num_nodes(0), 2);  // i in {0, 2}
  EXPECT_EQ(csf.num_nodes(1), 3);  // (0,1),(0,2),(2,0)
  EXPECT_EQ(csf.num_nodes(2), 4);
  EXPECT_EQ(csf.level_idx(0)[0], 0);
  EXPECT_EQ(csf.level_idx(0)[1], 2);
  // Children of i=0 are the first two j-nodes.
  EXPECT_EQ(csf.level_ptr(0)[0], 0);
  EXPECT_EQ(csf.level_ptr(0)[1], 2);
  EXPECT_EQ(csf.level_ptr(0)[2], 3);
  // Values in sorted leaf order: (0,1,0)=2, (0,1,2)=1, (0,2,1)=3, (2,0,0)=4.
  EXPECT_DOUBLE_EQ(csf.vals()[0], 2.0);
  EXPECT_DOUBLE_EQ(csf.vals()[3], 4.0);
}

TEST(CsfTensor, LevelNodeCountsEqualPrefixCounts) {
  Rng rng(8);
  const CooTensor t = random_coo({7, 6, 5, 4}, 120, rng);
  const CsfTensor csf(t);
  for (int k = 1; k <= 4; ++k) {
    EXPECT_EQ(csf.num_nodes(k - 1), t.nnz_prefix(k)) << "level " << k;
  }
}

TEST(CsfTensor, RoundTripsThroughCoo) {
  Rng rng(9);
  const CooTensor t = random_coo({5, 7, 6}, 70, rng);
  const CsfTensor csf(t);
  const CooTensor back = csf.to_coo();
  ASSERT_EQ(back.nnz(), t.nnz());
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    EXPECT_EQ(std::vector<std::int64_t>(back.coord(e).begin(),
                                        back.coord(e).end()),
              std::vector<std::int64_t>(t.coord(e).begin(),
                                        t.coord(e).end()));
    EXPECT_DOUBLE_EQ(back.value(e), t.value(e));
  }
}

TEST(CsfTensor, ModePermutationRoundTrips) {
  Rng rng(10);
  const CooTensor t = random_coo({4, 6, 5}, 50, rng);
  const CsfTensor csf(t, {2, 0, 1});
  EXPECT_EQ(csf.level_dims(),
            (std::vector<std::int64_t>{5, 4, 6}));
  const CooTensor back = csf.to_coo();
  ASSERT_EQ(back.nnz(), t.nnz());
  for (std::int64_t e = 0; e < t.nnz(); ++e) {
    EXPECT_DOUBLE_EQ(back.value(e), t.value(e));
  }
}

TEST(CsfTensor, EmptyTensorYieldsEmptyLevels) {
  CooTensor t({3, 3});
  t.sort_dedup();
  const CsfTensor csf(t);
  EXPECT_EQ(csf.nnz(), 0);
  EXPECT_EQ(csf.num_nodes(0), 0);
}

TEST(CsfTensor, RejectsUnsortedInput) {
  CooTensor t({3, 3});
  t.push_back({1, 1}, 1.0);
  EXPECT_THROW(CsfTensor{t}, Error);
}

TEST(CsfTensor, RejectsBadPermutation) {
  CooTensor t({3, 3});
  t.push_back({1, 1}, 1.0);
  t.sort_dedup();
  EXPECT_THROW(CsfTensor(t, {0, 0}), Error);
}

/// Entry ranges that cut a tensor of `nnz` entries into slices, including
/// empty ones at the front, middle and back.
std::vector<std::int64_t> slice_cuts(std::int64_t nnz) {
  return {0, 0, nnz / 3, nnz / 2, nnz / 2, nnz - 1, nnz, nnz};
}

TEST(CsfTensor, SlicesConcatenateToTheSourceCoo) {
  Rng rng(31);
  for (const std::vector<std::int64_t>& dims :
       std::vector<std::vector<std::int64_t>>{
           {50}, {9, 11}, {6, 7, 8}, {4, 5, 6, 3}}) {
    SCOPED_TRACE("order " + std::to_string(dims.size()));
    const CooTensor t = random_coo(dims, 80, rng);
    const std::vector<std::int64_t> cuts = slice_cuts(t.nnz());
    CooTensor joined(dims);
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const CsfTensor s = CsfTensor::slice(t, cuts[c], cuts[c + 1]);
      EXPECT_EQ(s.level_dims(), dims);
      ASSERT_EQ(s.nnz(), cuts[c + 1] - cuts[c]);
      const CooTensor part = s.to_coo();
      for (std::int64_t e = 0; e < part.nnz(); ++e) {
        joined.push_back(part.coord(e), part.value(e));
      }
    }
    ASSERT_EQ(joined.nnz(), t.nnz());
    EXPECT_EQ(joined.raw_coords(), t.raw_coords());
    for (std::int64_t e = 0; e < t.nnz(); ++e) {
      EXPECT_EQ(joined.value(e), t.value(e));
    }
  }
}

TEST(CsfTensor, SliceFingerprintsAreNonzeroAndDifferFromWhole) {
  Rng rng(37);
  const CooTensor t = random_coo({6, 7, 8}, 60, rng);
  const std::uint64_t whole = CsfTensor(t).structure_fingerprint();
  const std::vector<std::int64_t> cuts = slice_cuts(t.nnz());
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::uint64_t f =
        CsfTensor::slice(t, cuts[c], cuts[c + 1]).structure_fingerprint();
    EXPECT_NE(f, 0u);
    EXPECT_NE(f, whole);
  }
  // Even a slice holding every entry is not the whole tensor.
  EXPECT_NE(CsfTensor::slice(t, 0, t.nnz()).structure_fingerprint(), whole);
  EXPECT_THROW(CsfTensor::slice(t, 5, 4), Error);
  EXPECT_THROW(CsfTensor::slice(t, 0, t.nnz() + 1), Error);
}

// A plan carries the whole tensor's fingerprint, so the fingerprint-checked
// executor refuses a slice, even one holding every entry.
TEST(CsfTensor, PlanCheckedExecutorRefusesSlice) {
  Rng rng(39);
  const CooTensor t = random_coo({6, 7, 8}, 60, rng);
  const DenseTensor b = random_dense({7, 3}, rng);
  const DenseTensor c = random_dense({8, 3}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  FusedExecutor exec(bound.kernel, plan_kernel(bound));
  DenseTensor out = make_output(bound);
  ExecArgs args;
  args.dense = bound.dense;
  args.out_dense = &out;
  args.sparse = &bound.csf;
  EXPECT_NO_THROW(exec.execute(args));
  const CsfTensor s = CsfTensor::slice(t, 0, t.nnz());
  args.sparse = &s;
  try {
    exec.execute(args);
    ADD_FAILURE() << "slice executed against the whole tensor's plan";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Generate, RandomCooHitsTargetAndIsDeduped) {
  Rng rng(11);
  const CooTensor t = random_coo({20, 20, 20}, 300, rng);
  EXPECT_EQ(t.nnz(), 300);
  EXPECT_TRUE(t.is_sorted());
}

TEST(Generate, RandomCooSaturatesSmallSpace) {
  Rng rng(12);
  const CooTensor t = random_coo({2, 2}, 100, rng);
  EXPECT_LE(t.nnz(), 4);
  EXPECT_GE(t.nnz(), 3);  // should nearly fill the space
}

TEST(Generate, HierarchicalMatchesFanoutStatistics) {
  Rng rng(13);
  const CooTensor t = hierarchical_coo({500, 400, 300}, 200, {6.0, 4.0}, rng);
  // Roots: exactly 200 distinct i values.
  EXPECT_EQ(t.nnz_prefix(1), 200);
  // Mean fan-outs should be near the configured values.
  const double f1 = static_cast<double>(t.nnz_prefix(2)) /
                    static_cast<double>(t.nnz_prefix(1));
  const double f2 = static_cast<double>(t.nnz()) /
                    static_cast<double>(t.nnz_prefix(2));
  EXPECT_NEAR(f1, 6.0, 1.5);
  EXPECT_NEAR(f2, 4.0, 1.0);
}

TEST(Generate, DeterministicAcrossRuns) {
  Rng a(77);
  Rng b(77);
  const CooTensor ta = random_coo({30, 30}, 50, a);
  const CooTensor tb = random_coo({30, 30}, 50, b);
  ASSERT_EQ(ta.nnz(), tb.nnz());
  for (std::int64_t e = 0; e < ta.nnz(); ++e) {
    EXPECT_DOUBLE_EQ(ta.value(e), tb.value(e));
  }
}

TEST(Generate, PresetsInstantiateScaled) {
  Rng rng(14);
  const CooTensor t = make_preset_tensor("nell-2", 0.002, rng);
  EXPECT_EQ(t.order(), 3);
  // nnz ~ published * scale (within the stochastic fan-out slack).
  EXPECT_GT(t.nnz(), 76879419 * 0.002 * 0.4);
  EXPECT_LT(t.nnz(), 76879419 * 0.002 * 2.5);
  // Dims scale by sqrt(scale).
  EXPECT_NEAR(static_cast<double>(t.dim(0)), 12092 * std::sqrt(0.002),
              12092 * std::sqrt(0.002) * 0.1);
}

TEST(Generate, UnknownPresetThrows) {
  Rng rng(1);
  EXPECT_THROW(make_preset_tensor("no-such-tensor", 0.1, rng), Error);
}

TEST(Generate, LowRankValuesAreStructured) {
  Rng rng(15);
  // Noise-free rank-1 tensor has values equal to products of factor rows —
  // verify nonzero structure and determinism only (exact CP recovery is
  // covered by the ALS example/integration test).
  const CooTensor t = lowrank_coo({10, 10, 10}, 2, 100, 0.0, rng);
  EXPECT_GT(t.nnz(), 50);
  double mag = 0;
  for (std::int64_t e = 0; e < t.nnz(); ++e) mag += std::abs(t.value(e));
  EXPECT_GT(mag, 0.0);
}

TEST(Generate, CatalogCoversPaperTensors) {
  const auto& presets = tensor_presets();
  std::set<std::string> names;
  for (const auto& p : presets) names.insert(p.name);
  for (const char* want :
       {"nell-2", "nips", "enron", "vast-3d", "darpa", "synth3", "synth4"}) {
    EXPECT_TRUE(names.count(want)) << want;
  }
}

}  // namespace
}  // namespace spttn
