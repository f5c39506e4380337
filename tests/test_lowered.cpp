// Golden-output suite for the executor's one driver, the lowered program
// (exec/lowered_program.hpp): every paper kernel under every lint planner-option set,
// plus the generated networks of golden_networks(), sequentially and under
// the work-stealing pool, must reproduce tests/golden/outputs.txt bit for
// bit. The rows were recorded by tools/spttn_golden and pin the output
// bits, so any change to accumulation order, partitioning or addressing
// trips here. The generated networks are also checked against the
// unfactorized reference, and every execution must report every root
// region as lowered. The producer chain (the fused TTTP/SDDMM leaf body)
// is checked bit for bit against the generic per-statement body.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "core/planner.hpp"
#include "dist/dist_spttn.hpp"
#include "exec/executor.hpp"
#include "exec/unfactorized.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace spttn {
namespace {

using spttn::testing::ScopedLanes;

/// Golden rows keyed by "<kernel> <option set> <threads>".
std::map<std::string, std::string> read_golden_outputs() {
  std::ifstream in(std::string(SPTTN_SOURCE_DIR) +
                   "/tests/golden/outputs.txt");
  std::map<std::string, std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kernel, set, threads;
    fields >> kernel >> set >> threads;
    rows[kernel + " " + set + " " + threads] = line;
  }
  return rows;
}

const std::string& golden_row(const std::string& kernel,
                              const std::string& set, int threads) {
  static const std::map<std::string, std::string> rows =
      read_golden_outputs();
  static const std::string missing = "<missing golden row>";
  const auto it =
      rows.find(kernel + " " + set + " " + std::to_string(threads));
  return it == rows.end() ? missing : it->second;
}

struct ExecRun {
  DenseTensor dense;
  std::vector<double> sparse;
  ExecStats stats;

  std::span<const double> out() const {
    return sparse.empty() ? std::span<const double>(
                                dense.data(),
                                static_cast<std::size_t>(dense.size()))
                          : std::span<const double>(sparse);
  }
};

ExecRun run(FusedExecutor& exec, const SuiteInstance& inst, int threads) {
  ExecRun r;
  ExecArgs args;
  args.sparse = &inst.bound.csf;
  args.dense = inst.bound.dense;
  args.num_threads = threads;
  args.stats = &r.stats;
  if (inst.bound.kernel.output_is_sparse()) {
    r.sparse.assign(static_cast<std::size_t>(inst.bound.csf.nnz()), 0.0);
    args.out_sparse = r.sparse;
  } else {
    r.dense = make_output(inst.bound);
    args.out_dense = &r.dense;
  }
  exec.execute(args);
  return r;
}

/// Run `sk` planned under `set` at `threads` and compare with its golden
/// row; returns the run for further checks.
ExecRun expect_golden(const SuiteKernel& sk, const LintOptionSet& set,
                  int threads) {
  const auto inst = make_suite_instance(sk, 42);
  const Plan plan =
      make_plan(inst->bound.kernel, inst->bound.stats, set.options);
  FusedExecutor exec(inst->bound.kernel, plan);
  ExecRun r = run(exec, *inst, threads);
  EXPECT_EQ(golden_output_line(sk.name, set.name, threads, r.out()),
            golden_row(sk.name, set.name, threads));
  EXPECT_EQ(r.stats.lowered_regions, r.stats.total_regions)
      << sk.name << " [" << set.name << "]";
  return r;
}

TEST(LoweredDifferential, SequentialSuiteAcrossAllLintOptionSets) {
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    for (const LintOptionSet& set : lint_option_sets()) {
      expect_golden(sk, set, /*threads=*/1);
    }
  }
}

TEST(LoweredDifferential, ThreadedSuiteMatchesGoldenRowsAndReruns) {
  ScopedLanes lanes(4);
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    const auto inst = make_suite_instance(sk, 42);
    for (const LintOptionSet& set : lint_option_sets()) {
      const std::string label = sk.name + " [" + set.name + "]";
      const Plan plan =
          make_plan(inst->bound.kernel, inst->bound.stats, set.options);
      FusedExecutor exec(inst->bound.kernel, plan);
      const ExecRun first = run(exec, *inst, /*threads=*/4);
      const ExecRun rerun = run(exec, *inst, /*threads=*/4);
      EXPECT_EQ(golden_output_line(sk.name, set.name, 4, first.out()),
                golden_row(sk.name, set.name, 4));
      // Same partition shape => bit-identical reruns on one executor.
      EXPECT_EQ(golden_output_line(sk.name, set.name, 4, rerun.out()),
                golden_row(sk.name, set.name, 4))
          << label;
      EXPECT_EQ(first.stats.lowered_regions, first.stats.total_regions)
          << label;
    }
  }
}

// Shapes beyond the paper suite: order-7 and order-8 random networks, whose
// operands and collapsed chains run deeper than any suite kernel's, and an
// order-8 tensor train with terms and resets at the top level, outside
// every loop.
TEST(LoweredDifferential, GeneratedNetworksMatchGoldenRowsAndUnfactorized) {
  ScopedLanes lanes(4);
  for (const SuiteKernel& net : golden_networks()) {
    SCOPED_TRACE(net.name + ": " + net.expr);
    const auto inst = make_suite_instance(net, 42);
    UnfactorizedExecutor reference(inst->bound.kernel);
    DenseTensor unf = make_output(inst->bound);
    reference.execute(inst->bound.csf, inst->bound.dense, &unf, {});
    for (const int threads : {1, 4}) {
      const ExecRun r = expect_golden(net, golden_network_options(), threads);
      EXPECT_LT(r.dense.max_abs_diff(unf), 1e-9) << threads << " threads";
    }
    EXPECT_GT(unf.norm(), 0.0);
  }
}

// Every row of the checked-in table belongs to a case the tests above run,
// so the table cannot hold stale rows that nothing checks.
TEST(LoweredDifferential, GoldenTableHasOneRowPerCase) {
  std::set<std::string> expected;
  for (const int threads : {1, 4}) {
    for (const SuiteKernel& sk : paper_kernel_suite()) {
      for (const LintOptionSet& set : lint_option_sets()) {
        expected.insert(sk.name + " " + set.name + " " +
                        std::to_string(threads));
      }
    }
    for (const SuiteKernel& net : golden_networks()) {
      expected.insert(net.name + " " + golden_network_options().name + " " +
                      std::to_string(threads));
    }
  }
  std::set<std::string> keys;
  for (const auto& [key, line] : read_golden_outputs()) keys.insert(key);
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(expected.size(), 126u);
}

const SuiteKernel& suite_kernel(const std::string& name) {
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    if (sk.name == name) return sk;
  }
  throw Error("no suite kernel " + name);
}

// The census: the default tttp3 and sddmm_like plans compile their leaf
// loop to a chain that carries the dot as its producer, and the generic
// per-statement body the differential test below compares against is what
// collapse_dense = false keeps.
TEST(LoweredChains, TttpAndSddmmLeafBodiesCompileToProducerChains) {
  for (const std::string name : {"tttp3", "sddmm_like"}) {
    const auto inst = make_suite_instance(suite_kernel(name), 42);
    const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats, {});
    const FusedExecutor fused(inst->bound.kernel, plan);
    EXPECT_EQ(fused.producer_chains(), 1) << name;
    const FusedExecutor generic(inst->bound.kernel, plan.path, plan.order,
                                /*collapse_dense=*/false);
    EXPECT_EQ(generic.producer_chains(), 0) << name;
  }
}

/// Factor rows by row number: all -0.0, a pattern (c, -c, d, -d, ..., 0)
/// whose products with all-ones rows sum to exactly +0, all ones, or random
/// values of both signs.
DenseTensor signed_zero_factor(std::int64_t rows, std::int64_t rank,
                               Rng& rng) {
  DenseTensor f({rows, rank});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t r = 0; r < rank; ++r) {
      double v = rng.next_double() - 0.5;
      if (i % 4 == 3) {
        v = -0.0;
      } else if (i % 3 == 0) {
        const double c = 0.25 * static_cast<double>(r / 2 + 1);
        v = r + 1 == rank && rank % 2 == 1 ? 0.0 : (r % 2 == 0 ? c : -c);
      } else if (i % 2 == 0) {
        v = 1.0;
      }
      f.at({i, r}) = v;
    }
  }
  return f;
}

/// A tensor of dims `dims` whose leaf fibers have lengths cycling through
/// 1..13 (the last dim must be at least 16), with values of both signs.
CooTensor cycling_fibers(const std::vector<std::int64_t>& dims, Rng& rng) {
  CooTensor t(dims);
  const std::int64_t leaf_dim = dims.back();
  std::int64_t fibers = 1;
  for (std::size_t m = 0; m + 1 < dims.size(); ++m) fibers *= dims[m];
  for (std::int64_t f = 0; f < fibers; ++f) {
    std::vector<std::int64_t> coord(dims.size());
    std::int64_t rest = f;
    for (std::size_t m = dims.size() - 1; m-- > 0;) {
      coord[m] = rest % dims[m];
      rest /= dims[m];
    }
    for (std::int64_t e = 0; e < 1 + f % 13; ++e) {
      coord.back() = (f * 7 + e * 5) % leaf_dim;
      const double v = 0.5 + rng.next_double();
      t.push_back(coord, e % 2 == 0 ? -v : v);
    }
  }
  t.sort_dedup();
  return t;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The producer chain against the generic body it replaces: tttp3- and
// sddmm_like-shaped kernels over leaf fibers of 1..13 nonzeros, at ranks 1,
// 5 and 16, with factor rows of -0.0 and rows whose dot is exactly +0 next
// to negative tensor values (S = +0 + T*b and S = T*b differ there: +0
// against -0). Zeroing and accumulating outputs, 1 and 4 lanes, and
// DistSpttn at 2 and 5 ranks must all match the same plan compiled with
// collapse_dense = false bit for bit.
TEST(LoweredChains, ProducerChainMatchesGenericBodyBitForBit) {
  ScopedLanes lanes(4);
  struct Shape {
    std::string kernel;
    std::vector<std::int64_t> dims;
  };
  const std::vector<Shape> shapes = {{"tttp3", {5, 6, 16}},
                                     {"sddmm_like", {26, 16}}};
  for (const Shape& shape : shapes) {
    for (const std::int64_t rank : {1, 5, 16}) {
      SCOPED_TRACE(shape.kernel + " R=" + std::to_string(rank));
      Rng rng(static_cast<std::uint64_t>(7 * rank + shape.dims.size()));
      const CooTensor t = cycling_fibers(shape.dims, rng);
      std::vector<DenseTensor> factors;
      for (const std::int64_t dim : shape.dims) {
        factors.push_back(signed_zero_factor(dim, rank, rng));
      }
      std::vector<const DenseTensor*> ptrs;
      for (const DenseTensor& f : factors) ptrs.push_back(&f);
      const BoundKernel bound =
          bind(suite_kernel(shape.kernel).expr, t, ptrs);
      const Plan plan = make_plan(bound.kernel, bound.stats, {});
      FusedExecutor fused(bound.kernel, plan);
      FusedExecutor generic(bound.kernel, plan.path, plan.order,
                            /*collapse_dense=*/false);
      ASSERT_EQ(fused.producer_chains(), 1);
      ASSERT_EQ(generic.producer_chains(), 0);
      // The analysis sees the chain's producer, reset and term as it sees
      // the generic body's three statements.
      EXPECT_EQ(fused.shared_buffers(), generic.shared_buffers());
      const auto regions = fused.parallel_regions();
      const auto generic_regions = generic.parallel_regions();
      ASSERT_EQ(regions.size(), generic_regions.size());
      for (std::size_t g = 0; g < regions.size(); ++g) {
        const auto& a = regions[g];
        const auto& b = generic_regions[g];
        EXPECT_EQ(std::tie(a.top_position, a.root_index, a.sparse,
                           a.par_safe, a.nest_safe, a.writes_out_dense,
                           a.writes_out_sparse, a.out_dense_rooted,
                           a.out_dense_inner_rooted),
                  std::tie(b.top_position, b.root_index, b.sparse,
                           b.par_safe, b.nest_safe, b.writes_out_dense,
                           b.writes_out_sparse, b.out_dense_rooted,
                           b.out_dense_inner_rooted));
      }

      const auto nnz = static_cast<std::size_t>(bound.csf.nnz());
      // The accumulate start holds -0.0, +0.0 and values of both signs.
      std::vector<double> start(nnz);
      for (std::size_t e = 0; e < nnz; ++e) {
        const double v = e % 2 == 1 ? -0.5 : 0.5;
        start[e] = e % 3 == 0 ? -0.0 : (e % 3 == 1 ? 0.0 : v);
      }
      const auto run = [&](FusedExecutor& exec, bool accumulate,
                           int threads) {
        std::vector<double> out = start;
        ExecArgs args;
        args.sparse = &bound.csf;
        args.dense = bound.dense;
        args.out_sparse = out;
        args.accumulate = accumulate;
        args.num_threads = threads;
        exec.execute(args);
        return out;
      };
      for (const bool accumulate : {false, true}) {
        for (const int threads : {1, 4}) {
          EXPECT_TRUE(same_bits(run(fused, accumulate, threads),
                                run(generic, accumulate, threads)))
              << "accumulate " << accumulate << ", " << threads << " lanes";
        }
      }
      const std::vector<double> want = run(generic, false, 1);
      for (const int ranks : {2, 5}) {
        const DistSpttn dist(bound, ranks);
        ShmemComm comm(ranks);
        std::vector<double> got(nnz);
        dist.run(comm, {}, nullptr, got);
        EXPECT_TRUE(same_bits(got, want)) << ranks << " ranks";
      }
    }
  }
}

}  // namespace
}  // namespace spttn
