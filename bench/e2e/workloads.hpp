// The benchmark's four workloads. Each generates its inputs from the seed
// (never timed), sets up and checks outputs, runs its closed loop, and
// prints its metrics through the Report: the end-to-end set when untraced,
// the per-layer set when traced.
#pragma once

#include <string>

#include "harness.hpp"
#include "tensor/dense_tensor.hpp"
#include "util/rng.hpp"

namespace spttn::e2e {

/// CP-ALS sweeps on the nell-2 stand-in, one lane.
void run_als_nell2(const RunConfig& cfg, Report& report);
/// CP-completion epochs on the darpa stand-in, kLanes lanes.
void run_complete_darpa(const RunConfig& cfg, Report& report);
/// DistSpttn over 16 shared-memory ranks on the nell-2 stand-in.
void run_dist_nell2(const RunConfig& cfg, Report& report);
/// Four clients over 24 kernel signatures and a 16-entry KernelCache.
void run_serve_churn(const RunConfig& cfg, Report& report);

/// "i<m>" index names; MTTKRP and TTTP spelled as apps/decompose.cpp does.
std::string mttkrp_expr(int order, int mode);
std::string tttp_expr(int order);

/// (n x r) factor with entries in [-0.5, 0.5), as cp_als and cp_complete start.
DenseTensor small_factor(std::int64_t n, std::int64_t r, Rng& rng);

}  // namespace spttn::e2e
