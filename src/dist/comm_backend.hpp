// Pluggable communication backends for the distributed runtime.
//
// DistSpttn::run is transport-agnostic: rank scheduling, the dense-factor
// allgathers, and the output all-reduce all flow through a CommBackend.
// Every collective issued through the backend is recorded as a CommEvent
// (kind, payload bytes, seconds, modeled-vs-measured), so DistResult can
// report a per-collective breakdown regardless of transport.
//
// Two implementations:
//  - ModeledComm: the alpha-beta cost model of dist/comm_model.hpp. No
//    bytes move; seconds are charged analytically. This is the historical
//    simulated transport, preserved bit-for-bit: DistResult::time() under
//    ModeledComm equals what the pre-backend inline charging produced.
//  - ShmemComm: a real shared-memory transport. Ranks run as tasks on the
//    process-wide ThreadPool, allgathers materialize one replica of the
//    payload per rank (ranks then read their own replica during local
//    execution), and the output all-reduce is a tiled rank-ordered fold
//    over the per-rank partials. Seconds are *measured* wall-clock, which
//    is what calibrates the alpha-beta constants against reality.
//
// Determinism contract: allreduce folds partials element-wise in ascending
// rank order for every backend, so kernel outputs are bit-identical across
// backends and across sequential/concurrent rank scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dist/comm_model.hpp"
#include "tensor/dense_tensor.hpp"

namespace spttn {

/// Which collective a CommEvent records.
enum class CollectiveKind { kAllgather, kAllreduce };

/// One collective issued through a CommBackend during a run.
struct CommEvent {
  CollectiveKind kind = CollectiveKind::kAllgather;
  /// Payload bytes of the collective (the gathered factor / reduced
  /// output), uniform across backends so modeled and measured rows are
  /// volume-comparable. Transports may move more than this internally
  /// (ShmemComm writes one replica per rank).
  std::int64_t bytes = 0;
  /// Charged (modeled) or measured (real transport) wall-clock seconds.
  double seconds = 0;
  /// True when `seconds` comes from the alpha-beta model, false when it
  /// was measured around real buffer movement.
  bool modeled = true;
};

/// Transport interface of the distributed runtime. One instance serves one
/// rank count; DistSpttn::run resets per-run state via begin_run().
///
/// Public methods are non-virtual wrappers that maintain the event log;
/// backends implement the do_* hooks.
class CommBackend {
 public:
  CommBackend(int ranks, CommParams params);
  virtual ~CommBackend();

  CommBackend(const CommBackend&) = delete;
  CommBackend& operator=(const CommBackend&) = delete;

  /// Stable backend identifier ("modeled", "shmem").
  virtual std::string name() const = 0;
  /// True when collective seconds are charged to the alpha-beta model
  /// rather than measured around real buffer movement.
  virtual bool modeled() const = 0;

  int ranks() const { return ranks_; }
  const CommParams& params() const { return params_; }

  /// Reset per-run state (event log, gathered replicas). DistSpttn::run
  /// calls this first, so one backend instance serves repeated runs.
  void begin_run();

  /// Collectives issued since begin_run(), in issue order.
  const std::vector<CommEvent>& events() const { return events_; }

  /// Schedule body(r) for every rank in [0, ranks). Backends choose the
  /// schedule; the base implementation runs ranks sequentially, or as one
  /// task each on the process-wide ThreadPool when `concurrent` is set
  /// (lanes own contiguous rank ranges, so a rank's work stays on one
  /// thread unless stolen).
  void run_ranks(bool concurrent, const std::function<void(std::int64_t)>& body);

  /// Allgather a dense factor: after the call every rank can read the full
  /// payload through gathered(). Returns the slot id to pass to gathered().
  /// Logged as one CommEvent with bytes = payload bytes.
  int allgather(const DenseTensor& payload);

  /// Rank-local view of allgathered slot `slot` (a per-rank replica for
  /// real transports, the original payload for ModeledComm).
  const DenseTensor& gathered(int rank, int slot) const;

  /// All-reduce the per-rank output partials into `out`: fold element-wise
  /// in ascending rank order (bit-deterministic; null entries are idle
  /// ranks and are skipped). `out` must be zero-initialized. On a single
  /// rank the fold still happens but no event is logged (a one-process
  /// collective is free, matching the historical charging).
  void allreduce(std::span<const DenseTensor* const> partials,
                 DenseTensor* out);

 protected:
  virtual void do_run_ranks(bool concurrent,
                            const std::function<void(std::int64_t)>& body);
  /// Move the payload (if the transport moves bytes) and price the
  /// collective. `slot` is the id the wrapper will hand out.
  virtual CommEvent do_allgather(const DenseTensor& payload, int slot) = 0;
  virtual const DenseTensor& do_gathered(int rank, int slot) const;
  virtual CommEvent do_allreduce(std::span<const DenseTensor* const> partials,
                                 DenseTensor* out) = 0;
  /// Clear backend-owned per-run state (base clears nothing).
  virtual void do_begin_run();

  const int ranks_;
  const CommParams params_;
  std::vector<CommEvent> events_;
  /// Slot id -> original payload (for do_gathered's default).
  std::vector<const DenseTensor*> sources_;
};

/// The alpha-beta model as a backend: the historical simulated transport,
/// now a test double. No bytes move; ranks read the original factors; the
/// all-reduce is the sequential ascending-rank fold; seconds come from
/// dist/comm_model.hpp.
class ModeledComm final : public CommBackend {
 public:
  ModeledComm(int ranks, CommParams params = {});
  std::string name() const override { return "modeled"; }
  bool modeled() const override { return true; }

 protected:
  CommEvent do_allgather(const DenseTensor& payload, int slot) override;
  CommEvent do_allreduce(std::span<const DenseTensor* const> partials,
                         DenseTensor* out) override;
};

/// Real shared-memory transport: allgathers copy the payload into one
/// replica per rank (ranks read their replica during local execution), the
/// all-reduce is a tiled ascending-rank fold over the partials on the
/// process-wide pool, and every event's seconds are measured wall-clock.
/// The reduced output is readable in place by every rank (shared memory is
/// the transport), so the measured all-reduce covers the reduction's
/// buffer movement; EXPERIMENTS.md describes calibrating CommParams from
/// these measurements.
class ShmemComm final : public CommBackend {
 public:
  ShmemComm(int ranks, CommParams params = {});
  std::string name() const override { return "shmem"; }
  bool modeled() const override { return false; }

 protected:
  CommEvent do_allgather(const DenseTensor& payload, int slot) override;
  const DenseTensor& do_gathered(int rank, int slot) const override;
  CommEvent do_allreduce(std::span<const DenseTensor* const> partials,
                         DenseTensor* out) override;
  void do_begin_run() override;

 private:
  /// Elements per all-reduce tile; fixed (not pool-derived) so the
  /// partition shape never depends on the host.
  static constexpr std::int64_t kReduceTile = 8192;
  /// replicas_[slot][rank] = this rank's copy of the gathered payload.
  std::vector<std::vector<DenseTensor>> replicas_;
};

/// Construct a backend by name: "modeled" or "shmem"; any other name
/// throws Error.
std::unique_ptr<CommBackend> make_comm_backend(const std::string& name,
                                               int ranks,
                                               CommParams params = {});

/// Backend names constructible in this binary, in preference order.
std::vector<std::string> comm_backend_names();

}  // namespace spttn
