// CTF-style pairwise-contraction baseline (paper Section 2.4.2).
//
// Executes the contraction path one term at a time, materializing every
// intermediate as an element-sparse hash map — the behaviour of general
// sparse tensor frameworks that build full (sparse) intermediates instead
// of fusing. Memory and time blow up exactly where the paper reports CTF
// struggling, which is the point of the baseline.
#pragma once

#include <cstdint>
#include <span>

#include "core/contraction_path.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/einsum.hpp"

namespace spttn {

struct PairwiseStats {
  std::int64_t peak_intermediate_entries = 0;  ///< max hash-map size seen
  std::int64_t total_scalar_ops = 0;           ///< multiply-accumulates
};

/// Execute `kernel` along `path` with materialized intermediates.
/// `dense` has one slot per input (sparse slot ignored); outputs zeroed.
/// Throws spttn::Error if an intermediate would exceed `max_entries`
/// elements (the baseline's out-of-memory condition).
PairwiseStats pairwise_execute(const Kernel& kernel,
                               const ContractionPath& path,
                               const CooTensor& sparse,
                               std::span<const DenseTensor* const> dense,
                               DenseTensor* out_dense,
                               std::span<double> out_sparse,
                               std::int64_t max_entries = 1ll << 27);

/// Estimated scalar operations of executing `path` pairwise with
/// materialized intermediates: unlike the fused estimate (path_flops),
/// intermediates not derived from the sparse tensor are dense over their
/// full index space, a sparse-derived one holds the exact projection of
/// `sparse` (sort_dedup()ed) onto its sparse modes, and each term iterates
/// the driving operand's entries times the other side's free extents.
double pairwise_path_flops(const Kernel& kernel, const ContractionPath& path,
                           const CooTensor& sparse);

/// The contraction path a pairwise framework would choose: minimum
/// pairwise_path_flops over all paths (no executability filter — pairwise
/// execution does not need one). Each projection count is taken once per
/// call and shared by every path's estimate.
ContractionPath pairwise_best_path(const Kernel& kernel,
                                   const CooTensor& sparse);

}  // namespace spttn
