// Distributed-memory SpTTN execution (paper Section 5.2) over pluggable
// communication backends.
//
// The sparse tensor's nonzeros are partitioned cyclically over a ProcGrid;
// each rank runs the planner-chosen loop nest on its local CSF (timed for
// real). Rank scheduling, the dense-factor allgathers, and the closing
// output all-reduce all flow through a CommBackend (dist/comm_backend.hpp):
// ModeledComm charges the alpha-beta model of dist/comm_model.hpp — the
// historical simulated transport, how CoNST and SparseAuto validate
// distributed schedules without a live cluster — while ShmemComm moves real
// bytes (per-rank factor replicas, tiled partial reduction) and reports
// measured seconds. Every backend folds rank partials element-wise in
// ascending rank order, so kernel outputs are bit-identical across
// backends and across sequential/concurrent rank scheduling. Sparse
// outputs (TTTP) live with their owning rank and need no reduction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/comm_backend.hpp"
#include "dist/grid.hpp"
#include "exec/spttn.hpp"

namespace spttn {

/// Per-collective-kind totals derived from a DistResult's event log.
struct CommBreakdown {
  int count = 0;
  std::int64_t bytes = 0;
  double seconds = 0;
};

/// Outcome of one distributed run.
struct DistResult {
  int ranks = 1;
  ProcGrid grid;
  /// Name of the transport the run used ("modeled", "shmem").
  std::string backend = "modeled";
  /// True when comm seconds were charged to the alpha-beta model, false
  /// when they were measured around real buffer movement.
  bool modeled = true;
  /// Measured wall-clock of each rank's local kernel (zero for idle ranks).
  std::vector<double> local_seconds;
  double max_local_seconds = 0;
  /// Total collective time / volume (factor allgathers + output
  /// all-reduce; zero on a single rank). Sum over `events`.
  double comm_seconds = 0;
  std::int64_t comm_bytes = 0;
  /// Every collective the backend issued, in issue order.
  std::vector<CommEvent> events;
  /// Load imbalance: max over ranks of local nnz divided by the mean.
  double imbalance = 1.0;

  /// Totals for one collective kind (allgather vs allreduce observability).
  CommBreakdown breakdown(CollectiveKind kind) const;

  /// End-to-end time: slowest rank plus collectives.
  double time() const { return max_local_seconds + comm_seconds; }
};

/// A bound kernel prepared for execution on `ranks` processes.
///
/// Construction partitions the nonzeros (cheap, metadata only); run() plans
/// once from the global sparsity statistics — SPMD ranks execute the same
/// nest — then executes every rank's local problem and merges the partials
/// through the communication backend. Planning goes through the
/// process-wide KernelCache, so repeated runs over the same bound tensor
/// (rank-count sweeps, iterative drivers) reuse one cached plan instead of
/// re-searching per run.
class DistSpttn {
 public:
  DistSpttn(const BoundKernel& bound, int ranks);

  const ProcGrid& grid() const { return grid_; }
  /// Nonzeros owned by each rank; sums to the global nnz.
  const std::vector<std::int64_t>& local_nnz() const { return local_nnz_; }

  /// Execute over the transport `comm`. For dense-output kernels the
  /// reduced result is written to `dense_out` (may be null to discard,
  /// e.g. for scaling benches); for sparse-output kernels the merged
  /// per-nonzero values go to `sparse_out` in global (sorted-COO) entry
  /// order (may be empty to discard). `comm.ranks()` must equal this
  /// instance's rank count.
  ///
  /// `local_threads` > 1 runs each rank's local loop nest through the
  /// process-wide thread pool (hybrid MPI+threads, paper Section 5.2's
  /// 64-rank-per-node setup maps ranks*threads onto one machine here).
  /// `concurrent_ranks` asks the backend to schedule ranks concurrently on
  /// the pool; every rank computes into a private partial either way and
  /// the backend folds partials in ascending rank order, so results are
  /// bit-identical to sequential rank scheduling. Per-rank wall-clock is
  /// measured around each rank's own run either way — on an oversubscribed
  /// machine concurrent ranks time-share cores, so keep the default for
  /// timing-faithful per-rank seconds and opt in for simulation throughput
  /// (e.g. sweeping many rank counts). Combining concurrent_ranks with
  /// local_threads > 1 stays correct and bit-identical (each rank executes
  /// the same partition shape inline, since rank tasks already occupy the
  /// pool) but adds no concurrency — prefer local_threads = 1 when ranks
  /// run concurrently. Peak memory holds one output partial per non-empty
  /// rank until the backend's all-reduce (the collective operates on the
  /// rank partials, exactly as a real transport would).
  DistResult run(CommBackend& comm, const PlannerOptions& options,
                 DenseTensor* dense_out, std::span<double> sparse_out,
                 int local_threads = 1, bool concurrent_ranks = false) const;

 private:
  const BoundKernel* bound_;
  int ranks_;
  ProcGrid grid_;
  std::vector<CooTensor> local_coo_;  ///< one partition per rank
  /// Global entry index of each rank's e-th local nonzero.
  std::vector<std::vector<std::int64_t>> entry_map_;
  std::vector<std::int64_t> local_nnz_;
};

}  // namespace spttn
