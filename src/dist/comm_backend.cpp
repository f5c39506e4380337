#include "dist/comm_backend.hpp"

#include <algorithm>
#include <cmath>

#include "exec/kernels.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace spttn {

CommBackend::CommBackend(int ranks, CommParams params)
    : ranks_(ranks), params_(params) {
  SPTTN_CHECK_MSG(ranks >= 1, "rank count must be positive, got " << ranks);
  SPTTN_CHECK_MSG(std::isfinite(params.alpha_seconds) &&
                      params.alpha_seconds >= 0.0,
                  "CommParams::alpha_seconds must be finite and >= 0, got "
                      << params.alpha_seconds);
  SPTTN_CHECK_MSG(
      std::isfinite(params.beta_seconds_per_byte) &&
          params.beta_seconds_per_byte >= 0.0,
      "CommParams::beta_seconds_per_byte must be finite and >= 0, got "
          << params.beta_seconds_per_byte);
}

CommBackend::~CommBackend() = default;

void CommBackend::begin_run() {
  events_.clear();
  sources_.clear();
  do_begin_run();
}

void CommBackend::do_begin_run() {}

void CommBackend::run_ranks(bool concurrent,
                            const std::function<void(std::int64_t)>& body) {
  do_run_ranks(concurrent && ranks_ > 1, body);
}

void CommBackend::do_run_ranks(
    bool concurrent, const std::function<void(std::int64_t)>& body) {
  if (concurrent) {
    ThreadPool::global().parallel_apply(ranks_, body);
  } else {
    for (std::int64_t r = 0; r < ranks_; ++r) body(r);
  }
}

int CommBackend::allgather(const DenseTensor& payload) {
  const int slot = static_cast<int>(sources_.size());
  sources_.push_back(&payload);
  CommEvent ev = do_allgather(payload, slot);
  ev.kind = CollectiveKind::kAllgather;
  events_.push_back(ev);
  return slot;
}

const DenseTensor& CommBackend::gathered(int rank, int slot) const {
  SPTTN_CHECK_MSG(rank >= 0 && rank < ranks_, "rank " << rank
                                                      << " out of range");
  SPTTN_CHECK_MSG(
      slot >= 0 && slot < static_cast<int>(sources_.size()),
      "allgather slot " << slot << " out of range " << sources_.size());
  return do_gathered(rank, slot);
}

const DenseTensor& CommBackend::do_gathered(int /*rank*/, int slot) const {
  return *sources_[static_cast<std::size_t>(slot)];
}

void CommBackend::allreduce(std::span<const DenseTensor* const> partials,
                            DenseTensor* out) {
  SPTTN_CHECK_MSG(static_cast<int>(partials.size()) == ranks_,
                  "allreduce wants one partial slot per rank, got "
                      << partials.size() << " for " << ranks_ << " ranks");
  CommEvent ev = do_allreduce(partials, out);
  ev.kind = CollectiveKind::kAllreduce;
  // A one-process collective is free and was never charged by the inline
  // model; keep the event log empty so single-rank runs report no comm.
  if (ranks_ > 1) events_.push_back(ev);
}

namespace {

/// The backends' all-reduce: fold the non-null rank partials into `out` in
/// ascending rank order (exec/kernels.hpp fold_partials).
void fold_ranks(std::span<const DenseTensor* const> partials,
                DenseTensor* out, std::int64_t tile) {
  std::vector<const double*> parts(partials.size(), nullptr);
  for (std::size_t r = 0; r < partials.size(); ++r) {
    if (partials[r] != nullptr) parts[r] = partials[r]->data();
  }
  fold_partials(parts, out->size(), out->data(), tile);
}

}  // namespace

// ------------------------------------------------------------ ModeledComm

ModeledComm::ModeledComm(int ranks, CommParams params)
    : CommBackend(ranks, params) {}

CommEvent ModeledComm::do_allgather(const DenseTensor& payload, int /*slot*/) {
  CommEvent ev;
  ev.bytes = payload.size() * static_cast<std::int64_t>(sizeof(double));
  ev.seconds = allgather_seconds(ev.bytes, ranks_, params_);
  ev.modeled = true;
  return ev;
}

CommEvent ModeledComm::do_allreduce(
    std::span<const DenseTensor* const> partials, DenseTensor* out) {
  // Sequential ascending-rank fold: byte-for-byte the historical inline
  // xaxpy loop of DistSpttn::run.
  fold_ranks(partials, out, /*tile=*/0);
  CommEvent ev;
  ev.bytes = out->size() * static_cast<std::int64_t>(sizeof(double));
  ev.seconds = allreduce_seconds(ev.bytes, ranks_, params_);
  ev.modeled = true;
  return ev;
}

// -------------------------------------------------------------- ShmemComm

ShmemComm::ShmemComm(int ranks, CommParams params)
    : CommBackend(ranks, params) {}

void ShmemComm::do_begin_run() { replicas_.clear(); }

CommEvent ShmemComm::do_allgather(const DenseTensor& payload, int slot) {
  SPTTN_CHECK(static_cast<std::size_t>(slot) == replicas_.size());
  // Receive buffers are setup, not transport: allocate untimed, then
  // measure the actual byte movement (every rank's copy lands in parallel,
  // as a real allgather's per-rank receives do).
  std::vector<DenseTensor>& reps = replicas_.emplace_back();
  reps.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) reps.emplace_back(payload.dims());
  Timer t;
  ThreadPool::global().parallel_apply(ranks_, [&](std::int64_t r) {
    std::copy(payload.data(), payload.data() + payload.size(),
              reps[static_cast<std::size_t>(r)].data());
  });
  CommEvent ev;
  ev.bytes = payload.size() * static_cast<std::int64_t>(sizeof(double));
  ev.seconds = t.seconds();
  ev.modeled = false;
  return ev;
}

const DenseTensor& ShmemComm::do_gathered(int rank, int slot) const {
  return replicas_[static_cast<std::size_t>(slot)]
                  [static_cast<std::size_t>(rank)];
}

CommEvent ShmemComm::do_allreduce(std::span<const DenseTensor* const> partials,
                                  DenseTensor* out) {
  // Tiled ascending-rank fold on the pool: tiles are fixed-size (host
  // independent) and elements are independent, so the result is bit
  // identical to the sequential fold no matter how tiles are scheduled.
  // The reduced output is readable in place by every rank (shared memory
  // is the transport), so the measured movement is the reduction itself.
  Timer t;
  fold_ranks(partials, out, kReduceTile);
  CommEvent ev;
  ev.bytes = out->size() * static_cast<std::int64_t>(sizeof(double));
  ev.seconds = t.seconds();
  ev.modeled = false;
  return ev;
}

// ---------------------------------------------------------------- factory

std::unique_ptr<CommBackend> make_comm_backend(const std::string& name,
                                               int ranks, CommParams params) {
  if (name == "modeled") return std::make_unique<ModeledComm>(ranks, params);
  if (name == "shmem") return std::make_unique<ShmemComm>(ranks, params);
  throw Error("unknown comm backend '" + name +
              "' (available: modeled, shmem)");
}

std::vector<std::string> comm_backend_names() {
  return {"modeled", "shmem"};
}

}  // namespace spttn
