// Distributed-memory SpTTN execution (paper Section 5.2) over the
// shared-memory transport of dist/comm.hpp.
//
// The sparse tensor is cut into contiguous, nnz-balanced ranges of whole
// level-1 fibers, one per rank (the owner-computes layout of SPLATT's
// distributed CP-ALS), and each rank's CSF slice is built once at
// construction. Each rank runs the planner-chosen loop nest on its slice
// (timed for real). The dense-factor allgathers and the closing output
// all-reduce go through ShmemComm, which moves real bytes (per-rank factor
// replicas, tiled partial reduction) and prices every collective both
// ways: measured seconds and the alpha-beta model's seconds. The
// all-reduce folds rank partials in ascending rank order, so kernel
// outputs are bit-identical across sequential and concurrent rank
// scheduling. Sparse outputs (TTTP) are written in place: each rank owns a
// disjoint entry range of the output and needs no reduction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/comm.hpp"
#include "exec/spttn.hpp"

namespace spttn {

/// Per-collective-kind totals derived from a DistResult's event log.
struct CommBreakdown {
  int count = 0;
  std::int64_t bytes = 0;
  double seconds = 0;        ///< measured
  double model_seconds = 0;  ///< alpha-beta priced
};

/// Outcome of one distributed run.
struct DistResult {
  int ranks = 1;
  /// Measured wall-clock of each rank's local kernel (zero for idle ranks).
  std::vector<double> local_seconds;
  double max_local_seconds = 0;
  /// Total collective time / volume (factor allgathers + output
  /// all-reduce; zero on a single rank), summed over `events`: measured
  /// seconds, alpha-beta priced seconds and payload bytes.
  double comm_seconds = 0;
  double comm_model_seconds = 0;
  std::int64_t comm_bytes = 0;
  /// Every collective the run issued, in issue order.
  std::vector<CommEvent> events;
  /// Load imbalance: max over ranks of local nnz divided by the mean.
  double imbalance = 1.0;

  /// Totals for one collective kind (allgather vs allreduce observability).
  CommBreakdown breakdown(CollectiveKind kind) const;

  /// End-to-end time: slowest rank plus measured collectives.
  double time() const { return max_local_seconds + comm_seconds; }
  /// The same with the collectives priced by the alpha-beta model.
  double model_time() const {
    return max_local_seconds + comm_model_seconds;
  }
};

/// A bound kernel prepared for execution on `ranks` processes.
///
/// Construction partitions the bound CSF and builds every rank's CSF slice
/// (the bind-once step). Rank r owns the sorted entries [leaf_cuts()[r],
/// leaf_cuts()[r+1]); each cut is the first level-1 fiber boundary at or
/// past r*nnz/ranks (level-0 nodes for an order-1 tensor), the executor's
/// prefix-cut rule, so no level-1 fiber is split across ranks (a root may
/// be, which keeps a skewed root from idling ranks). run() plans once
/// from the global sparsity statistics — SPMD ranks execute the same nest
/// — then executes every rank's slice and merges the partials through the
/// transport. Planning goes through the process-wide KernelCache, so
/// repeated runs over the same bound tensor (rank-count sweeps, iterative
/// drivers) reuse one cached plan instead of re-searching per run. The
/// bound kernel and its sparse tensor must outlive this object.
class DistSpttn {
 public:
  DistSpttn(const BoundKernel& bound, int ranks);

  /// ranks + 1 entry offsets, from 0 to the global nnz.
  const std::vector<std::int64_t>& leaf_cuts() const { return cuts_; }
  /// Rank r's CSF slice.
  const CsfTensor& slice(int rank) const {
    return slices_[static_cast<std::size_t>(rank)];
  }
  /// Nonzeros owned by each rank; sums to the global nnz.
  std::vector<std::int64_t> local_nnz() const;

  /// Execute over the transport `comm`. For dense-output kernels the
  /// reduced result is written to `dense_out` (may be null to discard,
  /// e.g. for scaling benches); for sparse-output kernels the per-nonzero
  /// values go to `sparse_out` in global (sorted-COO) entry order (may be
  /// empty to discard). Binding an output the kernel does not produce — a
  /// `dense_out` for a sparse output, a non-empty `sparse_out` for a dense
  /// one — throws Error. `comm.ranks()` must equal this instance's rank
  /// count.
  ///
  /// `local_threads` > 1 runs each rank's local loop nest through the
  /// process-wide thread pool (hybrid MPI+threads, paper Section 5.2's
  /// 64-rank-per-node setup maps ranks*threads onto one machine here).
  /// `concurrent_ranks` runs the ranks as tasks on the process-wide pool
  /// (lanes own contiguous rank ranges) instead of one after another.
  /// Dense outputs go through one private partial per non-empty rank
  /// either way, folded by the all-reduce in ascending rank order;
  /// sparse outputs are written in place into each rank's disjoint entry
  /// range. Results are therefore bit-identical to sequential rank
  /// scheduling. Per-rank wall-clock is measured around each rank's own
  /// run either way — on an oversubscribed machine concurrent ranks
  /// time-share cores, so keep the default for timing-faithful per-rank
  /// seconds and opt in for simulation throughput (e.g. sweeping many rank
  /// counts). Combining concurrent_ranks with local_threads > 1 stays
  /// correct and bit-identical (each rank executes the same partition
  /// shape inline, since rank tasks already occupy the pool) but adds no
  /// concurrency — prefer local_threads = 1 when ranks run concurrently.
  /// Peak memory holds one dense output partial per non-empty rank until
  /// the all-reduce (the collective operates on the rank partials, exactly
  /// as a network transport would).
  DistResult run(ShmemComm& comm, const PlannerOptions& options,
                 DenseTensor* dense_out, std::span<double> sparse_out,
                 int local_threads = 1, bool concurrent_ranks = false) const;

 private:
  const BoundKernel* bound_;
  int ranks_;
  std::vector<std::int64_t> cuts_;
  std::vector<CsfTensor> slices_;
};

}  // namespace spttn
