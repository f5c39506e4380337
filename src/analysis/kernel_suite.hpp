// The paper's kernel families (Fig. 7 MTTKRP, Fig. 8 scaling, Fig. 10 loop
// orders, plus the TTMc/TTTP/TTTc families and stress shapes) as one shared
// suite, so the lint tool, the verifier bench, and the test fixtures all
// iterate the same kernels instead of each keeping a private copy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/spttn.hpp"

namespace spttn {

/// One kernel template: expression plus every index extent and the sparse
/// operand's nonzero fraction.
struct SuiteKernel {
  std::string name;
  std::string expr;
  std::vector<std::pair<std::string, std::int64_t>> dims;
  double sparsity = 0.05;

  /// Extent of index `name`, or -1 when the suite entry does not bind it.
  std::int64_t dim_of(const std::string& index_name) const;
  /// Dims of the sparse operand's indices, in CSF (expression) order.
  std::vector<std::int64_t> sparse_dims() const;
};

/// The paper kernels at test-friendly sizes. Order is stable; names are
/// unique (tests and the lint tool key on them).
const std::vector<SuiteKernel>& paper_kernel_suite();

/// A suite kernel instantiated with deterministic random tensors: the
/// sparse operand, the dense factors (order of appearance), and the bound
/// kernel referencing both. Heap-allocated so BoundKernel's internal
/// pointers stay valid across moves.
struct SuiteInstance {
  CooTensor sparse;
  std::vector<DenseTensor> factors;
  BoundKernel bound;

  /// The dense operand slots in kernel-input order, as executors take them.
  std::span<const DenseTensor* const> dense_slots() const {
    return bound.dense;
  }
};

std::unique_ptr<SuiteInstance> make_suite_instance(const SuiteKernel& sk,
                                                   std::uint64_t seed);

/// One named planner-option set of the lint sweep.
struct LintOptionSet {
  std::string name;
  PlannerOptions options;
};

/// The planner option sets spttn_lint sweeps (default, bound1, one per
/// alternative cost model, and a node budget that stops the search).
/// Shared with the golden output rows so "every paper kernel under every
/// lint option set" means the same sweep everywhere.
const std::vector<LintOptionSet>& lint_option_sets();

/// Generated networks beyond the paper suite that the golden output rows
/// also pin, at sparsity 0.05: random_network(7, 3, 3, Rng(1070)),
/// random_network(8, 3, 3, Rng(1082)) and tensor_train_network(8, 3, 2) —
/// deep operands, long collapsed chains and top-level scalar terms.
const std::vector<SuiteKernel>& golden_networks();
/// The option set the golden networks are planned under: a 128-node
/// search budget.
const LintOptionSet& golden_network_options();

/// One row of the golden output table (tests/golden/outputs.txt):
/// "<kernel> <option set> <threads> <element count> <hash>", where the hash
/// is the 64-bit FNV-1a of the output's raw IEEE-754 bytes as 16 hex
/// digits. The table holds each suite kernel under each lint option set and
/// each golden network, at instance seed 42 and 1 and 4 threads; the
/// 4-thread partitions depend on the pool's lane count, so rows are
/// recorded with the global pool pinned to 4 lanes.
std::string golden_output_line(const std::string& kernel,
                               const std::string& option_set, int threads,
                               std::span<const double> out);

}  // namespace spttn
