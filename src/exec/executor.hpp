// Fused loop-nest executor — the runtime half of SpTTN-Cyclops
// (paper Section 5, Algorithm 2).
//
// Construction walks the LoopTree once and compiles it straight into the
// one program form, the lowered program (lowered_program.hpp): loops are
// tagged as CSF traversals or dense ranges, buffers are sized, reset
// actions are placed, trailing dense loops exclusive to one term are
// collapsed into strided inner kernels selected up front (the runtime
// analogue of the paper's metaprogramming + BLAS hooks), and sparse loops
// whose body is one term, or one scalar term fed by one producer through a
// one-element buffer, fuse into chains. The parallel-safety analysis reads that
// same program, and execute() runs it against bound tensors, sequentially
// or split across the thread pool by one partitioner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/loop_tree.hpp"
#include "core/planner.hpp"
#include "tensor/csf_tensor.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/einsum.hpp"

namespace spttn {

/// Per-execution diagnostics, filled when ExecArgs.stats is set. The
/// runtime never falls back silently: every execution that received a
/// stats out-param fills it (populated = true), so "ran sequentially"
/// (threads_used == 1, total_regions counted) is distinguishable from
/// "stats never populated" (all defaults), and when num_threads > 1 the
/// outcome of every root loop (parallelized, nested, or not, and why not)
/// is observable here.
struct ExecStats {
  /// Set by every execute() call that was handed this struct, on both the
  /// sequential and the parallel path.
  bool populated = false;
  int threads_requested = 1;
  /// Widest work partitioning of any root-loop region: its task count,
  /// capped at threads_requested (1 when everything executed sequentially,
  /// a region priced to one task included). The splitter aims each region
  /// at a budget of B tasks (see ExecArgs::num_threads); a re-walked heavy
  /// chunk may emit a few more, which only smooth imbalance. Actual
  /// concurrency is additionally bounded by the process pool's lane count.
  int threads_used = 1;
  /// Top-level loops executed through the thread pool (>= 2 tasks). A
  /// region whose per-task output partials the budget priced down to one
  /// task (see ExecArgs::num_threads) runs in place and is not counted.
  int parallel_regions = 0;
  /// Top-level loops that requested threads but could not be partitioned
  /// safely (e.g. a cross-root buffer not indexed by the root loop).
  int fallback_regions = 0;
  /// Parallel regions where at least one task is a sub-range of the
  /// second loop level (a root position heavier than the per-task target
  /// was split while re-walking a heavy chunk).
  int nested_regions = 0;
  /// Top-level loop regions in the program (filled on both the sequential
  /// and parallel paths).
  int total_regions = 0;
  /// Max over root regions of (largest task weight) / (mean task weight),
  /// where weight is subtree nnz for sparse roots and iteration count for
  /// dense roots; 1.0 when balanced or when there was no work to split.
  /// A region left as a single task reports its task budget B (its skew
  /// against an even B-way split), so a serialized region stays visible;
  /// a region priced to one task has B = 1 and reports 1.0.
  double partition_imbalance = 1.0;
  /// Top-level loop regions that ran through the lowered program. It is
  /// the only program form, so this always equals total_regions; it is
  /// kept for consumers that report it.
  int lowered_regions = 0;
};

/// Tensor bindings for one execution.
struct ExecArgs {
  /// CSF of the sparse operand; its mode order must match the order of the
  /// sparse tensor's indices in the kernel expression.
  const CsfTensor* sparse = nullptr;
  /// One entry per kernel input; the sparse slot is ignored (may be null).
  std::vector<const DenseTensor*> dense;
  /// Output when the kernel output is dense.
  DenseTensor* out_dense = nullptr;
  /// Output values aligned with the CSF nonzeros when the output shares the
  /// sparse operand's pattern (e.g. TTTP).
  std::span<double> out_sparse;
  /// Accumulate into the output instead of zeroing it first.
  bool accumulate = false;
  /// Level-0 positions [root_begin, root_end) of `sparse` that top-level
  /// sparse root loops run (root_end < 0: every root); other top-level
  /// actions run in full. The lanes cut the whole CSF as usual and drop the
  /// tasks outside the range, so every root's output bits are those of a
  /// whole-CSF execution. DistSpttn runs a rank's slice in such ranges.
  std::int64_t root_begin = 0;
  std::int64_t root_end = -1;
  /// Lanes of parallelism for the root loop(s), served by the process-wide
  /// work-stealing ThreadPool; 1 = sequential. One deterministic splitter
  /// partitions every safe root loop, and multi-root forests parallelize
  /// each root loop with a barrier between roots:
  ///  - Root positions are weighted (subtree nonzero count for sparse
  ///    roots, one iteration's work for dense roots; total W) and cut at
  ///    the weight prefixes c*W/B into at most B = min(num_threads, lanes
  ///    or 4x lanes, W) chunks: one per lane when root chunks already need
  ///    per-task output partials, four per lane otherwise.
  ///  - Such a full-size partial (a dense output not strided by the root,
  ///    or a sparse output under a dense root) costs zeroing and folding
  ///    its length L per task, so those regions take B = min(B, max(1,
  ///    W' / L)), W' the weight of the roots this execution runs. A region
  ///    priced to one task runs in place on the output, with no partial
  ///    and no fold: its output is the 1-lane output bit for bit.
  ///  - A chunk heavier than 1.25x the per-task target T = ceil(W/B) is
  ///    re-walked when the region admits a nested split
  ///    (ParallelRegionInfo::nest_safe): positions heavier than T split
  ///    across the second loop level, lighter ones coalesce into runs of
  ///    about T.
  /// Workers own private intermediates; cross-root buffers stay shared
  /// with disjoint writes; outputs either write disjoint slices directly or
  /// go through per-task partials folded by a tiled deterministic
  /// reduction (same partition shape => bit-identical results run to run).
  /// A dense output led by the sparse root index folds only the rows of
  /// the roots that ran, so executions over disjoint roots may share it.
  /// A second-level split can turn a direct-write region into a partials
  /// region; it keeps the direct-write budget, so it may allocate up to
  /// B <= 4x lanes output partials.
  int num_threads = 1;
  /// Optional out-param receiving per-execution diagnostics.
  ExecStats* stats = nullptr;
};

/// The prefix-cut rule of both partitioners, the executor's lanes and
/// DistSpttn's ranks. `prefix` is a non-decreasing weight prefix over
/// positions (prefix[p] = weight before position p); cut c of `parts` lands
/// on the first position whose prefix is at or past c*W/parts of the total
/// weight W = prefix.back() - prefix.front(). Returns that position.
std::int64_t prefix_cut(std::span<const std::int64_t> prefix, std::int64_t c,
                        std::int64_t parts);

/// Executes one fully-fused loop nest for an SpTTN kernel.
class FusedExecutor {
 public:
  /// Compile the nest for (path, order). The kernel must have bound dims.
  /// `collapse_dense` disables the inner-kernel offload when false (used by
  /// the ablation benchmarks to isolate the BLAS-hook benefit).
  FusedExecutor(const Kernel& kernel, const ContractionPath& path,
                const LoopOrder& order, bool collapse_dense = true);

  /// Convenience constructor from a planner result. Records the plan's
  /// sparsity fingerprint: execute() then verifies the CSF it is handed
  /// matches the structure the plan was derived from (both fingerprints
  /// non-zero and unequal => error), so a cached or reused plan cannot
  /// silently run against a structurally different tensor. Use the
  /// (path, order) constructor to opt out when running a plan against
  /// other structures is intended (e.g. SPMD ranks executing a
  /// globally-planned nest on local partitions).
  FusedExecutor(const Kernel& kernel, const Plan& plan);

  ~FusedExecutor();
  FusedExecutor(FusedExecutor&&) noexcept;
  FusedExecutor& operator=(FusedExecutor&&) noexcept;

  /// Run the kernel. Validates all bindings against the kernel shape.
  void execute(const ExecArgs& args);

  const LoopTree& tree() const;

  /// Number of terms whose inner loops were collapsed into strided kernels,
  /// and the total count of collapsed loops (diagnostics).
  int offloaded_terms() const;
  int collapsed_loops() const;
  /// Number of sparse loops compiled to a chain that carries a producer
  /// term (the fused TTTP/SDDMM epilogue; diagnostics).
  int producer_chains() const;

  /// Compile-time locality facts of one top-level root-loop region, as
  /// decided by analyze_parallel from the operand and chain strides of the
  /// lowered program every execution runs. Exposed so the plan verifier
  /// can cross-check its own independently derived region classification
  /// (PlanVerifier::verify with an executor) — the two analyses must agree
  /// before a region is partitioned across workers.
  struct ParallelRegionInfo {
    int top_position = -1;  ///< position in the top-level action sequence
    int root_index = -1;    ///< kernel index id of the root loop
    bool sparse = false;
    bool par_safe = false;
    bool nest_safe = false;
    bool writes_out_dense = false;
    bool writes_out_sparse = false;
    bool out_dense_rooted = true;
    bool out_dense_inner_rooted = true;
  };
  /// One entry per top-level kLoop action, in top order.
  std::vector<ParallelRegionInfo> parallel_regions() const;
  /// Per-term sharedness of the intermediate buffers: 1 when the buffer
  /// carries values across top-level actions (lives in storage shared by
  /// all workers). Slots without an allocated buffer (the final term) are
  /// reported 0.
  std::vector<char> shared_buffers() const;
  /// Whether trailing dense exclusive chains were collapsed into strided
  /// kernels when this nest was compiled.
  bool collapse_dense() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spttn
