// Alpha-beta cost model for the collectives of the simulated distributed
// runtime (paper Section 5.2; constants recorded in EXPERIMENTS.md).
//
// Every collective over `bytes` payload on `p` ranks is charged
//   latency_terms * alpha + volume_factor * bytes * beta
// with the standard volume factors of the recursive-halving/doubling
// algorithms (Thakur et al.): an all-reduce moves 2(p-1)/p of the payload,
// an allgather (p-1)/p. One process (or zero bytes) always costs zero.
#pragma once

#include <cstdint>

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

}  // namespace spttn
