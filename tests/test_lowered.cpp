// Golden-output suite for the executor's one driver, the lowered program
// (exec/lowered_program.hpp): every paper kernel under every lint planner-option set,
// plus the generated networks of golden_networks(), sequentially and under
// the work-stealing pool, must reproduce tests/golden/outputs.txt bit for
// bit. The rows were recorded by tools/spttn_golden and pin the output
// bits, so any change to accumulation order, partitioning or addressing
// trips here. The generated networks are also checked against the
// unfactorized reference, and every execution must report every root
// region as lowered.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "exec/executor.hpp"
#include "exec/unfactorized.hpp"
#include "serve/kernel_cache.hpp"
#include "test_helpers.hpp"

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
  EXPECT_EQ(expected.size(), 146u);
}

TEST(LoweredDifferential, EntryBytesAccountForTheCompiledPrograms) {
  const auto& suite = paper_kernel_suite();
  const auto inst = make_suite_instance(suite.front(), 13);
  const PlannerOptions options;
  const Plan plan =
      make_plan(inst->bound.kernel, inst->bound.stats, options);
  const FusedExecutor exec(inst->bound.kernel, plan);
  EXPECT_GT(exec.program_bytes(), 0u);

  const KernelSignature sig =
      make_signature(inst->bound.kernel, inst->bound.stats, options);
  const std::size_t with_exec =
      estimate_entry_bytes(sig, inst->bound.kernel, plan, &exec);
  const std::size_t heuristic =
      estimate_entry_bytes(sig, inst->bound.kernel, plan);
  // The exec-aware estimate swaps the per-action heuristic for the real
  // program footprint; both must include it (strictly more than the
  // structure-only parts, i.e. nonzero either way).
  EXPECT_GT(with_exec, exec.program_bytes());
  EXPECT_GT(heuristic, 0u);
}

}  // namespace
}  // namespace spttn
