#include "dist/comm.hpp"

#include <algorithm>
#include <cmath>

#include "exec/kernels.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace spttn {

namespace {

double log2_ceil(int p) {
  int steps = 0;
  for (int span = 1; span < p; span *= 2) ++steps;
  return static_cast<double>(steps);
}

double collective(std::int64_t bytes, int p, double latency_terms,
                  double volume_factor, const CommParams& params) {
  if (p <= 1 || bytes <= 0) return 0.0;
  return latency_terms * params.alpha_seconds +
         volume_factor * static_cast<double>(bytes) *
             params.beta_seconds_per_byte;
}

std::int64_t payload_bytes(const DenseTensor& t) {
  return t.size() * static_cast<std::int64_t>(sizeof(double));
}

}  // namespace

double allreduce_seconds(std::int64_t bytes, int p, const CommParams& params) {
  const double frac = static_cast<double>(p - 1) / static_cast<double>(p);
  return collective(bytes, p, 2 * log2_ceil(p), 2 * frac, params);
}

double allgather_seconds(std::int64_t bytes, int p, const CommParams& params) {
  const double frac = static_cast<double>(p - 1) / static_cast<double>(p);
  return collective(bytes, p, log2_ceil(p), frac, params);
}

ShmemComm::ShmemComm(int ranks, CommParams params)
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

void ShmemComm::begin_run() {
  events_.clear();
  replicas_.clear();
}

int ShmemComm::allgather(const DenseTensor& payload) {
  // Receive buffers are setup, not transport: allocate untimed, then
  // measure the actual byte movement (every rank's copy lands in parallel,
  // as a real allgather's per-rank receives do).
  std::vector<DenseTensor>& reps = replicas_.emplace_back();
  reps.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) reps.emplace_back(payload.dims());
  const Timer t;
  ThreadPool::global().parallel_apply(ranks_, [&](std::int64_t r) {
    std::copy(payload.data(), payload.data() + payload.size(),
              reps[static_cast<std::size_t>(r)].data());
  });
  const double seconds = t.seconds();
  const std::int64_t bytes = payload_bytes(payload);
  events_.push_back({CollectiveKind::kAllgather, bytes, seconds,
                     allgather_seconds(bytes, ranks_, params_)});
  return static_cast<int>(replicas_.size()) - 1;
}

const DenseTensor& ShmemComm::gathered(int rank, int slot) const {
  SPTTN_CHECK_MSG(rank >= 0 && rank < ranks_, "rank " << rank
                                                      << " out of range");
  SPTTN_CHECK_MSG(
      slot >= 0 && slot < static_cast<int>(replicas_.size()),
      "allgather slot " << slot << " out of range " << replicas_.size());
  return replicas_[static_cast<std::size_t>(slot)]
                  [static_cast<std::size_t>(rank)];
}

void ShmemComm::allgather_in_place(std::int64_t bytes) {
  if (ranks_ == 1) return;
  events_.push_back({CollectiveKind::kAllgather, bytes, 0.0,
                     allgather_seconds(bytes, ranks_, params_)});
}

void ShmemComm::allreduce(std::span<const DenseTensor* const> partials,
                          DenseTensor* out) {
  SPTTN_CHECK_MSG(static_cast<int>(partials.size()) == ranks_,
                  "allreduce wants one partial slot per rank, got "
                      << partials.size() << " for " << ranks_ << " ranks");
  std::vector<const double*> parts(partials.size(), nullptr);
  for (std::size_t r = 0; r < partials.size(); ++r) {
    if (partials[r] != nullptr) parts[r] = partials[r]->data();
  }
  const Timer t;
  fold_partials(parts, out->size(), out->data(), kReduceTile);
  const double seconds = t.seconds();
  // A one-process collective is free: single-rank runs report no comm.
  if (ranks_ == 1) return;
  const std::int64_t bytes = payload_bytes(*out);
  events_.push_back({CollectiveKind::kAllreduce, bytes, seconds,
                     allreduce_seconds(bytes, ranks_, params_)});
}

}  // namespace spttn
