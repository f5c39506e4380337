// Distributed-memory SpTTN execution (paper Section 5.2) over the
// shared-memory transport of dist/comm.hpp.
//
// The sparse tensor is cut into contiguous, nnz-balanced ranges of whole
// level-1 fibers, one per rank (the owner-computes layout of SPLATT's
// distributed CP-ALS), and each rank's CSF slice is built once at
// construction. Each rank runs the planner-chosen loop nest on its slice
// (timed for real). Dense factors reach the ranks through allgathers on
// ShmemComm, which moves real bytes (one replica per rank) and prices every
// collective both ways: measured seconds and the alpha-beta model's
// seconds. A factor indexed by the sparse root index, in a nest that loops
// over that index only as the CSF root, is read by each rank only at its
// own root rows, so it is bound in place and not gathered. A root a cut
// splits is read by every rank sharing it; that row is not priced either:
// in the owner-computes layout the sharing ranks already hold it, the way
// a root-strided output's cut rows end on every sharing rank after their
// all-reduce, so no run has to move it.
//
// How the output comes together depends on where the compiled nest writes
// it. A dense output led by the root index and written only under sparse
// root loops strided by that index (TTMc, MTTKRP mode 0) has one row per
// root, and only the ranks holding a root write its row. Rows of roots a
// rank holds alone are accumulated straight into one shared output; the
// at most ranks-1 roots a cut splits are summed by an all-reduce of those
// rows in ascending rank order, and the owned rows are logged as an
// allgather that moves nothing in shared memory. Any other dense output
// (MTTKRP modes 1 and 2) goes through one partial per rank and an
// all-reduce of the whole output, folded in ascending rank order. Either
// way kernel outputs are bit-identical across sequential and concurrent
// rank scheduling. Sparse outputs (TTTP) are written in place: each rank
// owns a disjoint entry range of the output and needs no reduction.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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
  /// Measured wall-clock of each rank's local kernel runs, its shares of
  /// cut roots included (zero for idle ranks).
  std::vector<double> local_seconds;
  double max_local_seconds = 0;
  /// Total collective time / volume (factor allgathers and the closing
  /// output collectives; zero on a single rank), summed over `events`:
  /// measured seconds, alpha-beta priced seconds and payload bytes.
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
/// prefix-cut rule (prefix_cut), so no level-1 fiber is split across ranks
/// (a root may be, which keeps a skewed root from idling ranks). The same
/// rule over root boundaries finds the root each cut splits; a slice's
/// roots are then the ones its rank holds alone plus at most two pieces of
/// cut roots, kept as root ranges of the one slice. run() plans once from
/// the global sparsity statistics — SPMD ranks execute the same nest —
/// then executes every rank's slice and merges the results through the
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
  /// A dense output led by the root index and written only under sparse
  /// root loops (TTMc, MTTKRP mode 0) is zeroed once, in `dense_out` when
  /// bound, and each rank accumulates the roots it holds alone into it.
  /// After the barrier each share of a cut root is computed from zero in
  /// the output's still-zero row, handed to its rank's cut-row partial and
  /// the row cleared again; the all-reduce of the cut rows sums them in
  /// ascending rank order. Every output write adds to +0, so no row can be
  /// -0, and each bit equals the ascending fold of full per-rank partials.
  /// Other dense outputs go through one private partial per non-empty rank,
  /// folded by an all-reduce of the whole output in ascending rank order;
  /// sparse outputs are written in place into each rank's disjoint entry
  /// range. Results are therefore bit-identical to sequential rank
  /// scheduling. Per-rank wall-clock is measured around each rank's own
  /// runs, its cut-root shares included, either way — on an oversubscribed
  /// machine concurrent ranks time-share cores, so keep the default for
  /// timing-faithful per-rank seconds and opt in for simulation throughput
  /// (e.g. sweeping many rank counts). Cut-root shares run one after
  /// another on the calling thread. Combining concurrent_ranks with
  /// local_threads > 1 stays correct and bit-identical (each rank executes
  /// the same partition shape inline, since rank tasks already occupy the
  /// pool) but adds no concurrency — prefer local_threads = 1 when ranks
  /// run concurrently. Peak memory holds the one shared output plus a
  /// cut-row block per rank holding a cut root on the in-place path, and
  /// one dense output partial per non-empty rank until the all-reduce on
  /// the other (the collective operates on the rank partials, exactly as a
  /// network transport would).
  DistResult run(ShmemComm& comm, const PlannerOptions& options,
                 DenseTensor* dense_out, std::span<double> sparse_out,
                 int local_threads = 1, bool concurrent_ranks = false) const;

 private:
  /// One rank's share of a cut root: level-0 position `position` of rank
  /// `rank`'s slice, reduced into row `row` of the cut-row block.
  struct Piece {
    int rank = 0;
    std::int64_t position = 0;
    std::int64_t row = 0;
  };

  const BoundKernel* bound_;
  int ranks_;
  std::vector<std::int64_t> cuts_;
  std::vector<CsfTensor> slices_;
  /// Level-0 positions [first, second) of rank r's slice: the roots it
  /// holds alone.
  std::vector<std::pair<std::int64_t, std::int64_t>> owned_;
  /// Coordinates of the roots the cuts split, ascending.
  std::vector<std::int64_t> cut_roots_;
  /// Every share of a cut root, ascending by (root, rank).
  std::vector<Piece> pieces_;
};

}  // namespace spttn
