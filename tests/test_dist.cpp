#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dist/dist_spttn.hpp"
#include "exec/executor.hpp"
#include "exec/kernels.hpp"
#include "exec/reference.hpp"
#include "serve/kernel_cache.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace spttn {
namespace {

using testing::paper_kernels;

/// bench_fig8_scaling's skewed-root tensor: about 95% of the nonzeros sit
/// under root slice i = 0, one nonzero under each other root.
CooTensor skewed_root_tensor(Rng& rng) {
  const std::int64_t heavy_j = 2048;
  const std::int64_t heavy_k = 256;
  CooTensor t({64, heavy_j, heavy_k});
  for (std::int64_t j = 0; j < heavy_j; ++j) {
    for (std::int64_t k = 0; k < heavy_k; ++k) {
      if ((j * 131 + k * 17) % 5 == 0) {
        t.push_back({0, j, k}, rng.next_double() + 0.25);
      }
    }
  }
  for (std::int64_t i = 1; i < 64; ++i) {
    t.push_back({i, i % heavy_j, i % heavy_k}, 1.0);
  }
  t.sort_dedup();
  return t;
}

std::int64_t bytes_of(const DenseTensor& t) {
  return t.size() * static_cast<std::int64_t>(sizeof(double));
}

/// A random factor with every fifth entry set to -0.0.
DenseTensor factor_with_negative_zeros(std::int64_t rows, std::int64_t cols,
                                       Rng& rng) {
  DenseTensor f = random_dense({rows, cols}, rng);
  for (std::int64_t e = 0; e < f.size(); e += 5) f.data()[e] = -0.0;
  return f;
}

/// The distributed output as full per-rank partials give it: each rank's
/// entry range executed into its own zeroed output, folded in ascending
/// rank order.
DenseTensor rank_partial_fold(const BoundKernel& bound, const DistSpttn& dist,
                              int local_threads) {
  const Plan plan = plan_kernel(bound, {}, KernelCache::global());
  FusedExecutor exec(bound.kernel, plan.path, plan.order);
  const std::vector<std::int64_t>& cuts = dist.leaf_cuts();
  std::vector<DenseTensor> partials;
  for (std::size_t r = 0; r + 1 < cuts.size(); ++r) {
    if (cuts[r] == cuts[r + 1]) continue;
    const CsfTensor slice = CsfTensor::slice(*bound.coo, cuts[r], cuts[r + 1]);
    DenseTensor& p = partials.emplace_back(make_output(bound));
    ExecArgs args;
    args.sparse = &slice;
    args.dense = bound.dense;
    args.out_dense = &p;
    args.num_threads = local_threads;
    exec.execute(args);
  }
  std::vector<const double*> parts;
  for (const DenseTensor& p : partials) parts.push_back(p.data());
  DenseTensor out = make_output(bound);
  fold_partials(parts, out.size(), out.data(), 0);
  return out;
}

/// Eight equally heavy roots of 8192 nonzeros each: at 5 ranks most
/// ranks own one whole root, heavy enough that four local lanes split it
/// into per-task partials while the other ranks write the shared output.
CooTensor heavy_roots_tensor(Rng& rng) {
  CooTensor t({8, 512, 64});
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 512; ++j) {
      for (std::int64_t k = 0; k < 64; ++k) {
        if ((j * 7 + k * 3 + i) % 4 == 0) {
          t.push_back({i, j, k}, rng.next_double() - 0.5);
        }
      }
    }
  }
  t.sort_dedup();
  return t;
}

// Cutting at root boundaries would hand the heavy root to one rank and
// leave most ranks idle; level-1 fiber ranges keep all 16 busy, and each
// rank is over the mean by at most one fiber.
TEST(DistPartition, SkewedTensorKeepsEveryRankBusy) {
  Rng rng(41);
  const CooTensor t = skewed_root_tensor(rng);
  const DenseTensor b = random_dense({t.dim(1), 4}, rng);
  const DenseTensor c = random_dense({t.dim(2), 4}, rng);
  const BoundKernel bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const std::vector<std::int64_t> lb = bound.csf.leaf_offsets(1);
  std::int64_t max_fiber = 0;
  for (std::size_t f = 0; f + 1 < lb.size(); ++f) {
    max_fiber = std::max(max_fiber, lb[f + 1] - lb[f]);
  }
  const int ranks = 16;
  DistSpttn dist(bound, ranks);
  for (const std::int64_t n : dist.local_nnz()) EXPECT_GT(n, 0);
  ShmemComm comm(ranks);
  DenseTensor out = make_output(bound);
  const DistResult r = dist.run(comm, {}, &out, {});
  const double mean = static_cast<double>(t.nnz()) / ranks;
  EXPECT_LE(r.imbalance, 1.0 + static_cast<double>(max_fiber) / mean);
  for (const double s : r.local_seconds) EXPECT_GT(s, 0.0);
}

// Every cut is a level-1 fiber boundary (any leaf for an order-1 tensor),
// and the slices cover [0, nnz) in rank order.
TEST(DistPartition, CutsLandOnFiberBoundariesAndCoverInOrder) {
  Rng rng(43);
  for (const std::vector<std::int64_t>& dims :
       std::vector<std::vector<std::int64_t>>{
           {40}, {12, 30}, {9, 8, 20}, {5, 6, 7, 8}}) {
    SCOPED_TRACE("order " + std::to_string(dims.size()));
    const CooTensor t = random_coo(dims, 200, rng);
    // Partitioning reads only the sparse tensor and its CSF.
    BoundKernel bound;
    bound.coo = &t;
    bound.csf = CsfTensor(t);
    const std::vector<std::int64_t> lb =
        bound.csf.leaf_offsets(bound.csf.order() > 1 ? 1 : 0);
    for (const int ranks : {1, 3, 16}) {
      SCOPED_TRACE("ranks " + std::to_string(ranks));
      const DistSpttn dist(bound, ranks);
      const std::vector<std::int64_t>& cuts = dist.leaf_cuts();
      ASSERT_EQ(cuts.size(), static_cast<std::size_t>(ranks) + 1);
      EXPECT_EQ(cuts.front(), 0);
      EXPECT_EQ(cuts.back(), t.nnz());
      for (int r = 0; r < ranks; ++r) {
        const auto ur = static_cast<std::size_t>(r);
        EXPECT_LE(cuts[ur], cuts[ur + 1]);
        EXPECT_TRUE(std::binary_search(lb.begin(), lb.end(), cuts[ur + 1]));
        EXPECT_EQ(dist.slice(r).nnz(), cuts[ur + 1] - cuts[ur]);
        if (dist.slice(r).nnz() > 0) {
          EXPECT_EQ(dist.slice(r).vals()[0], t.value(cuts[ur]));
        }
      }
    }
  }
}

// Zero nonzeros: every rank is idle, the dense output comes back zero and
// the sparse output is empty.
TEST(DistPartition, EmptyTensorRuns) {
  Rng rng(47);
  CooTensor t({5, 4, 3});
  t.sort_dedup();
  const DenseTensor u = random_dense({5, 2}, rng);
  const DenseTensor b = random_dense({4, 2}, rng);
  const DenseTensor c = random_dense({3, 2}, rng);
  const BoundKernel dense_bound =
      bind("A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", t, {&b, &c});
  const BoundKernel sparse_bound =
      bind("Y(i,j,k) = T(i,j,k)*U(i,r)*B(j,r)*C(k,r)", t, {&u, &b, &c});
  const int ranks = 4;
  ShmemComm comm(ranks);
  const DistSpttn dense_dist(dense_bound, ranks);
  DenseTensor out = make_output(dense_bound);
  out.fill(1.0);
  const DistResult r = dense_dist.run(comm, {}, &out, {});
  EXPECT_EQ(out.max_abs_diff(make_output(dense_bound)), 0.0);
  EXPECT_DOUBLE_EQ(r.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(r.max_local_seconds, 0.0);
  const DistSpttn sparse_dist(sparse_bound, ranks);
  EXPECT_NO_THROW(sparse_dist.run(comm, {}, nullptr, {}));
}

// A sparse output passed as an empty span is computed and dropped.
TEST(DistPartition, DiscardedSparseOutputRuns) {
  const auto inst = testing::make_instance(paper_kernels()[4], 913);  // tttp
  ASSERT_TRUE(inst->bound.kernel.output_is_sparse());
  const int ranks = 3;
  DistSpttn dist(inst->bound, ranks);
  ShmemComm comm(ranks);
  const DistResult r = dist.run(comm, {}, nullptr, {});
  EXPECT_EQ(r.ranks, ranks);
  EXPECT_GT(r.max_local_seconds, 0.0);
}

TEST(CommModel, CollectivesScaleSensibly) {
  const CommParams p;
  // Zero cost on one process or zero bytes.
  EXPECT_DOUBLE_EQ(allreduce_seconds(1 << 20, 1, p), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_seconds(0, 8, p), 0.0);
  // Monotone in bytes.
  EXPECT_LT(allreduce_seconds(1 << 10, 8, p), allreduce_seconds(1 << 20, 8, p));
  // Bandwidth term dominates for large messages: doubling bytes roughly
  // doubles time.
  const double t1 = allreduce_seconds(64 << 20, 8, p);
  const double t2 = allreduce_seconds(128 << 20, 8, p);
  EXPECT_NEAR(t2 / t1, 2.0, 0.1);
  // Allgather moves ~half the all-reduce volume.
  EXPECT_LT(allgather_seconds(1 << 20, 8, p), allreduce_seconds(1 << 20, 8, p));
}

struct DistEquivalence : ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistEquivalence, MatchesSequentialResult) {
  const auto [kernel_idx, ranks] = GetParam();
  const auto inst = testing::make_instance(
      paper_kernels()[static_cast<std::size_t>(kernel_idx)],
      2222 + kernel_idx);
  const Kernel& k = inst->bound.kernel;
  DistSpttn dist(inst->bound, ranks);
  ShmemComm comm(ranks);
  const PlannerOptions opts;
  if (k.output_is_sparse()) {
    std::vector<double> got(static_cast<std::size_t>(inst->sparse.nnz()));
    std::vector<double> want(got.size());
    const DistResult r = dist.run(comm, opts, nullptr, got);
    reference_execute(k, inst->sparse, inst->dense_slots(), nullptr, want);
    for (std::size_t e = 0; e < got.size(); ++e) {
      ASSERT_NEAR(got[e], want[e], 1e-9);
    }
    EXPECT_EQ(r.ranks, ranks);
  } else {
    DenseTensor got = make_output(inst->bound);
    DenseTensor want = make_output(inst->bound);
    const DistResult r = dist.run(comm, opts, &got, {});
    reference_execute(k, inst->sparse, inst->dense_slots(), &want, {});
    ASSERT_LT(want.max_abs_diff(got), 1e-9);
    EXPECT_EQ(r.ranks, ranks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsByRanks, DistEquivalence,
    ::testing::Combine(::testing::Values(0, 2, 4, 5, 7, 8),
                       ::testing::Values(1, 2, 4, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return paper_kernels()[static_cast<std::size_t>(
                                 std::get<0>(info.param))]
                 .name +
             "_p" + std::to_string(std::get<1>(info.param));
    });

// Hybrid rank x thread execution: each simulated rank's local nest runs on
// the shared-memory pool; results must match the pure-rank run for both
// output kinds (dense goes through per-rank accumulate, sparse through the
// owner-local value merge).
TEST(DistSpttn, HybridLocalThreadsMatchesSingleThreaded) {
  for (int kernel_idx : {0, 4}) {  // mttkrp3 (dense out), tttp3 (sparse out)
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        3333 + kernel_idx);
    const Kernel& k = inst->bound.kernel;
    DistSpttn dist(inst->bound, 3);
    ShmemComm comm(3);
    const PlannerOptions opts;
    if (k.output_is_sparse()) {
      std::vector<double> got(static_cast<std::size_t>(inst->sparse.nnz()));
      std::vector<double> want(got.size());
      dist.run(comm, opts, nullptr, want, /*local_threads=*/1);
      dist.run(comm, opts, nullptr, got, /*local_threads=*/4);
      for (std::size_t e = 0; e < got.size(); ++e) {
        ASSERT_NEAR(got[e], want[e], 1e-12);
      }
    } else {
      DenseTensor got = make_output(inst->bound);
      DenseTensor want = make_output(inst->bound);
      dist.run(comm, opts, &want, {}, /*local_threads=*/1);
      dist.run(comm, opts, &got, {}, /*local_threads=*/4);
      ASSERT_LT(want.max_abs_diff(got), 1e-12);
    }
  }
}

// Concurrent simulated ranks must be bit-identical to the sequential rank
// loop for the Figure 8 kernel families. Ranks write disjoint memory
// either way: their own rows of a root-strided output (TTMc, MTTKRP mode
// 0), a private partial of any other dense output, or their own entry
// range of a sparse one. The shares of cut roots run after the barrier,
// and every all-reduce folds in ascending rank order, so scheduling cannot
// change a single bit.
TEST(DistSpttn, ConcurrentRanksBitIdenticalToSequential) {
  testing::ScopedLanes lanes(4);  // real lanes even on 1-core CI boxes
  for (int kernel_idx : {0, 2, 4}) {  // mttkrp3, ttmc3, tttp3 (Fig. 8)
    SCOPED_TRACE(paper_kernels()[static_cast<std::size_t>(kernel_idx)].name);
    const auto inst = testing::make_instance(
        paper_kernels()[static_cast<std::size_t>(kernel_idx)],
        4444 + kernel_idx);
    const Kernel& k = inst->bound.kernel;
    for (int ranks : {2, 5}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks));
      DistSpttn dist(inst->bound, ranks);
      ShmemComm comm(ranks);
      const PlannerOptions opts;
      if (k.output_is_sparse()) {
        std::vector<double> want(static_cast<std::size_t>(inst->sparse.nnz()));
        std::vector<double> got(want.size());
        dist.run(comm, opts, nullptr, want, /*local_threads=*/1,
                 /*concurrent_ranks=*/false);
        dist.run(comm, opts, nullptr, got, /*local_threads=*/1,
                 /*concurrent_ranks=*/true);
        for (std::size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(want[e], got[e]);
        }
      } else {
        DenseTensor want = make_output(inst->bound);
        DenseTensor got = make_output(inst->bound);
        dist.run(comm, opts, &want, {}, /*local_threads=*/1,
                 /*concurrent_ranks=*/false);
        dist.run(comm, opts, &got, {}, /*local_threads=*/1,
                 /*concurrent_ranks=*/true);
        ASSERT_EQ(want.max_abs_diff(got), 0.0);
      }
    }
  }
}

// Hybrid: concurrent ranks whose local nests themselves request pool lanes
// (the inner parallel_apply runs inline inside a rank task) must still be
// bit-identical to the sequential hybrid run.
TEST(DistSpttn, ConcurrentRanksWithLocalThreadsMatch) {
  testing::ScopedLanes lanes(4);
  const auto inst = testing::make_instance(paper_kernels()[0], 4545);
  DistSpttn dist(inst->bound, 3);
  ShmemComm comm(3);
  const PlannerOptions opts;
  DenseTensor want = make_output(inst->bound);
  DenseTensor got = make_output(inst->bound);
  dist.run(comm, opts, &want, {}, /*local_threads=*/4,
           /*concurrent_ranks=*/false);
  dist.run(comm, opts, &got, {}, /*local_threads=*/4,
           /*concurrent_ranks=*/true);
  EXPECT_EQ(want.max_abs_diff(got), 0.0);
}

// Root-strided outputs (MTTKRP mode 0, TTMc) are accumulated in place and
// their cut roots all-reduced; MTTKRP mode 2 keeps the full-output
// all-reduce. Either way the output must equal, bit for bit, the ascending
// fold of full per-rank partials, on a tensor whose heavy root spans many
// ranks, on one with several heavy roots and on a suite instance, with
// -0.0 factor entries, for sequential and concurrent ranks with one and
// four local lanes. Under TSan the concurrent four-lane runs check that a
// rank's lane partials fold only into its own rows of the shared output.
TEST(DistSpttn, OutputBitIdenticalToRankPartialFold) {
  testing::ScopedLanes lanes(4);
  Rng rng(53);
  const CooTensor skewed = skewed_root_tensor(rng);
  const CooTensor heavy = heavy_roots_tensor(rng);
  const auto suite = testing::make_instance(paper_kernels()[0], 5353);
  // Each kernel's two factors: the sparse mode they share and their width.
  const struct {
    const char* expr;
    int mode[2];
    std::int64_t cols[2];
    bool full_allreduce;
  } kernels[] = {
      {"A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", {1, 2}, {4, 4}, false},
      {"S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)", {1, 2}, {4, 3}, false},
      {"A(k,r) = T(i,j,k)*B(i,r)*C(j,r)", {0, 1}, {4, 4}, true}};
  const CooTensor* tensors[] = {&skewed, &heavy, &suite->sparse};
  for (const CooTensor* t : tensors) {
    SCOPED_TRACE("nnz " + std::to_string(t->nnz()));
    for (const auto& kc : kernels) {
      SCOPED_TRACE(kc.expr);
      const DenseTensor f1 =
          factor_with_negative_zeros(t->dim(kc.mode[0]), kc.cols[0], rng);
      const DenseTensor f2 =
          factor_with_negative_zeros(t->dim(kc.mode[1]), kc.cols[1], rng);
      const BoundKernel bound = bind(kc.expr, *t, {&f1, &f2});
      for (const int ranks : {2, 5, 16}) {
        SCOPED_TRACE("ranks " + std::to_string(ranks));
        const DistSpttn dist(bound, ranks);
        ShmemComm comm(ranks);
        for (const int local_threads : {1, 4}) {
          SCOPED_TRACE("local_threads " + std::to_string(local_threads));
          const DenseTensor want =
              rank_partial_fold(bound, dist, local_threads);
          for (const bool concurrent : {false, true}) {
            SCOPED_TRACE(concurrent ? "concurrent" : "sequential");
            // run() reshapes a bound output of other dims (here none).
            DenseTensor got = concurrent ? DenseTensor() : make_output(bound);
            const DistResult r = dist.run(comm, {}, &got, {}, local_threads,
                                          concurrent);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  static_cast<std::size_t>(bytes_of(got))),
                      0);
            // The closing collective: an all-reduce of the whole output, or
            // the allgather of the rows the ranks wrote in place.
            ASSERT_FALSE(r.events.empty());
            EXPECT_EQ(r.events.back().kind, kc.full_allreduce
                                                ? CollectiveKind::kAllreduce
                                                : CollectiveKind::kAllgather);
            EXPECT_EQ(r.events.back().bytes, bytes_of(got));
          }
        }
      }
    }
  }
}

TEST(DistSpttn, PartitionCoversAllNonzeros) {
  const auto inst = testing::make_instance(paper_kernels()[0], 909);
  DistSpttn dist(inst->bound, 5);
  std::int64_t total = 0;
  for (auto n : dist.local_nnz()) total += n;
  EXPECT_EQ(total, inst->sparse.nnz());
}

// Exact accounting. MTTKRP mode 0 gathers both factors, all-reduces only
// the rows of the roots its cuts split and logs the rows each rank owns as
// an allgather of the output; it issues no full-output all-reduce. MTTKRP
// mode 2 reads B(i,r) only at its own roots, so it gathers C alone, and
// all-reduces the whole output once. Every event is priced exactly by
// comm.hpp's formulas.
TEST(DistSpttn, CommChargedForFactorsAndOutput) {
  const auto inst = testing::make_instance(paper_kernels()[0], 910);
  const int ranks = 4;
  const CommParams params;
  const auto expect_priced = [&](const CommEvent& ev, CollectiveKind kind,
                                 std::int64_t bytes) {
    EXPECT_EQ(ev.kind, kind);
    EXPECT_EQ(ev.bytes, bytes);
    EXPECT_EQ(ev.model_seconds,
              kind == CollectiveKind::kAllgather
                  ? allgather_seconds(bytes, ranks, params)
                  : allreduce_seconds(bytes, ranks, params));
  };
  {
    SCOPED_TRACE("mode 0");
    const DistSpttn dist(inst->bound, ranks);
    ShmemComm comm(ranks, params);
    DenseTensor out = make_output(inst->bound);
    const DistResult r = dist.run(comm, {}, &out, {});
    const std::int64_t cut =
        testing::cut_root_count(dist.leaf_cuts(), inst->bound.csf);
    ASSERT_GT(cut, 0) << "the instance must exercise the cut-row all-reduce";
    const std::int64_t row_bytes = bytes_of(out) / out.dim(0);
    ASSERT_EQ(r.events.size(), 4u);
    expect_priced(r.events[0], CollectiveKind::kAllgather,
                  bytes_of(inst->factors[0]));
    expect_priced(r.events[1], CollectiveKind::kAllgather,
                  bytes_of(inst->factors[1]));
    expect_priced(r.events[2], CollectiveKind::kAllreduce, cut * row_bytes);
    expect_priced(r.events[3], CollectiveKind::kAllgather, bytes_of(out));
    EXPECT_EQ(r.events[3].seconds, 0.0);  // nothing moves in shared memory
    EXPECT_EQ(r.breakdown(CollectiveKind::kAllreduce).bytes, cut * row_bytes);
    EXPECT_GE(r.imbalance, 1.0);
  }
  {
    SCOPED_TRACE("mode 2");
    Rng rng(912);
    const DenseTensor b = random_dense({inst->sparse.dim(0), 5}, rng);
    const DenseTensor c = random_dense({inst->sparse.dim(1), 5}, rng);
    const BoundKernel bound =
        bind("A(k,r) = T(i,j,k)*B(i,r)*C(j,r)", inst->sparse, {&b, &c});
    const DistSpttn dist(bound, ranks);
    ShmemComm comm(ranks, params);
    DenseTensor out = make_output(bound);
    const DistResult r = dist.run(comm, {}, &out, {});
    ASSERT_EQ(r.events.size(), 2u);
    expect_priced(r.events[0], CollectiveKind::kAllgather, bytes_of(c));
    expect_priced(r.events[1], CollectiveKind::kAllreduce, bytes_of(out));
    EXPECT_EQ(r.breakdown(CollectiveKind::kAllreduce).count, 1);
  }
}

// TTTP's output stays with its owners, and U(i,r) is read by each rank
// only at its own roots: only V and W are gathered, and nothing is
// reduced.
TEST(DistSpttn, SparseOutputNeedsNoReduction) {
  const auto inst = testing::make_instance(paper_kernels()[4], 911);  // tttp
  const int ranks = 4;
  DistSpttn dist4(inst->bound, ranks);
  ShmemComm comm(ranks);
  std::vector<double> out(static_cast<std::size_t>(inst->sparse.nnz()));
  const DistResult r = dist4.run(comm, {}, nullptr, out);
  const CommBreakdown ag = r.breakdown(CollectiveKind::kAllgather);
  EXPECT_EQ(ag.count, 2);
  EXPECT_EQ(ag.bytes,
            bytes_of(inst->factors[1]) + bytes_of(inst->factors[2]));
  ASSERT_EQ(r.events.size(), 2u);
  for (std::size_t e = 0; e < r.events.size(); ++e) {
    EXPECT_EQ(r.events[e].bytes, bytes_of(inst->factors[e + 1]));
    EXPECT_EQ(r.events[e].model_seconds,
              allgather_seconds(r.events[e].bytes, ranks, {}));
  }
  EXPECT_EQ(r.breakdown(CollectiveKind::kAllreduce).count, 0);
  EXPECT_EQ(r.comm_bytes, ag.bytes);
}

TEST(DistSpttn, SingleRankHasNoComm) {
  const auto inst = testing::make_instance(paper_kernels()[0], 912);
  DistSpttn dist(inst->bound, 1);
  ShmemComm comm(1);
  DenseTensor out = make_output(inst->bound);
  const DistResult r = dist.run(comm, {}, &out, {});
  EXPECT_DOUBLE_EQ(r.comm_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.comm_model_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.imbalance, 1.0);
}

}  // namespace
}  // namespace spttn
