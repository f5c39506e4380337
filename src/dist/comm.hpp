// The distributed runtime's transport (paper Section 5.2), priced both
// ways.
//
// ShmemComm moves real bytes between simulated ranks in one process:
// allgathers copy the payload into one replica per rank (ranks then read
// their own replica during local execution), and an all-reduce is a tiled
// ascending-rank fold over per-rank partials on the process-wide pool —
// of the whole output, or, when ranks write the output rows of their own
// roots in place, of just the rows of the roots the rank cuts split. Those
// owned rows are then logged as an allgather of the output that moves
// nothing in one address space (measured seconds 0) but keeps its model
// price. Every collective is recorded as a CommEvent carrying
// both its measured wall-clock `seconds` and its `model_seconds`, the
// alpha-beta price of the same collective under the comm's CommParams —
// how CoNST and SparseAuto validate distributed schedules without a live
// cluster. One run therefore reports what this machine did and what the
// modeled network would have charged.
//
// The alpha-beta model charges a collective over `bytes` payload on `p`
// ranks
//   latency_terms * alpha + volume_factor * bytes * beta
// with the standard volume factors of the recursive-halving/doubling
// algorithms (Thakur et al.): an all-reduce moves 2(p-1)/p of the payload,
// an allgather (p-1)/p. One process (or zero bytes) always costs zero.
// EXPERIMENTS.md records the constants.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/dense_tensor.hpp"

namespace spttn {

/// Machine constants of the alpha-beta model. Defaults approximate one
/// modern cluster node pair: 1 us message latency, 10 GB/s injection
/// bandwidth per rank.
struct CommParams {
  double alpha_seconds = 1e-6;        ///< per-message latency
  double beta_seconds_per_byte = 1e-10;  ///< inverse bandwidth
};

/// MPI_Allreduce (recursive halving + doubling):
/// 2*ceil(log2 p)*alpha + 2*(p-1)/p * bytes * beta.
double allreduce_seconds(std::int64_t bytes, int p, const CommParams& params);

/// MPI_Allgather (recursive doubling), `bytes` = full gathered payload:
/// ceil(log2 p)*alpha + (p-1)/p * bytes * beta.
double allgather_seconds(std::int64_t bytes, int p, const CommParams& params);

/// Which collective a CommEvent records.
enum class CollectiveKind { kAllgather, kAllreduce };

/// One collective issued during a run.
struct CommEvent {
  CollectiveKind kind = CollectiveKind::kAllgather;
  /// Payload bytes of the collective (the gathered factor or output, or
  /// the reduced output or cut rows). The transport moves more than this
  /// internally: an allgather writes one replica per rank.
  std::int64_t bytes = 0;
  /// Measured wall-clock around the buffer movement.
  double seconds = 0;
  /// The alpha-beta price of the collective (allgather_seconds or
  /// allreduce_seconds of `bytes` on the comm's ranks and CommParams).
  double model_seconds = 0;
};

/// Shared-memory transport of the distributed runtime. One instance serves
/// one rank count; DistSpttn::run resets its per-run state via begin_run(),
/// so one instance serves repeated runs.
class ShmemComm {
 public:
  /// Throws Error unless `ranks` >= 1 and both CommParams constants are
  /// finite and non-negative.
  ShmemComm(int ranks, CommParams params = {});

  ShmemComm(const ShmemComm&) = delete;
  ShmemComm& operator=(const ShmemComm&) = delete;

  int ranks() const { return ranks_; }

  /// Clear the event log and the gathered replicas.
  void begin_run();

  /// Collectives issued since begin_run(), in issue order.
  const std::vector<CommEvent>& events() const { return events_; }

  /// Allgather a dense factor: copy it into one replica per rank, in
  /// parallel on the pool (receive buffers are allocated untimed). Returns
  /// the slot id to pass to gathered(). Logged as one CommEvent with
  /// bytes = payload bytes.
  int allgather(const DenseTensor& payload);

  /// Rank `rank`'s replica of allgathered slot `slot`.
  const DenseTensor& gathered(int rank, int slot) const;

  /// Log the allgather of an output whose ranks wrote their own rows in
  /// place in the one address space: nothing moves, so the event's
  /// measured seconds are 0, and the model prices the gathered `bytes`. On
  /// a single rank nothing is logged.
  void allgather_in_place(std::int64_t bytes);

  /// All-reduce the per-rank partials into `out`: a tiled fold,
  /// element-wise in ascending rank order on the pool (null entries are
  /// idle ranks and are skipped), so the bits do not depend on the tiling
  /// or the schedule. `out` must be zero-initialized. The reduced output
  /// is readable in place by every rank, so the measured movement is the
  /// reduction itself. On a single rank the fold still happens but no
  /// event is logged: a one-process collective is free.
  void allreduce(std::span<const DenseTensor* const> partials,
                 DenseTensor* out);

 private:
  /// Elements per all-reduce tile; fixed (not pool-derived) so the
  /// partition shape never depends on the host.
  static constexpr std::int64_t kReduceTile = 8192;

  const int ranks_;
  const CommParams params_;
  std::vector<CommEvent> events_;
  /// replicas_[slot][rank] = this rank's copy of the gathered payload.
  std::vector<std::vector<DenseTensor>> replicas_;
};

}  // namespace spttn
