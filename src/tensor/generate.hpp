// Synthetic sparse-tensor generators.
//
// The paper evaluates on FROSTT tensors plus random tensors of controlled
// sparsity. The datasets are not redistributable here, so we substitute
// generators that reproduce the statistics the algorithms actually depend
// on: mode sizes and the per-CSF-level nonzero counts nnz(I1...Ik)
// (see tensor_presets() below for the catalog of dataset stand-ins).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "tensor/dense_tensor.hpp"

namespace spttn {

class Rng;

/// Uniformly random sparse tensor: nnz_target distinct coordinates sampled
/// uniformly, values in [-1,1). Result is sorted and deduplicated (the
/// realized nnz may be slightly below target when density is high).
CooTensor random_coo(std::vector<std::int64_t> dims, std::int64_t nnz_target,
                     Rng& rng);

/// Fiber-structured random tensor controlling CSF statistics.
///
/// root_count roots are sampled at mode 0; a node at level l gets a
/// geometrically distributed number of children with mean fanout[l].
/// Expected nnz == root_count * prod(fanout). This models real tensors,
/// whose deeper CSF levels have multiple nonzeros per fiber — the property
/// that makes factorize-and-fuse asymptotically faster (paper §2.4).
CooTensor hierarchical_coo(std::vector<std::int64_t> dims,
                           std::int64_t root_count,
                           const std::vector<double>& fanout, Rng& rng);

/// Sparse tensor whose values follow a rank-`rank` CP model plus noise,
/// observed at nnz_target random positions. Used by the decomposition and
/// completion examples where convergence is meaningful.
CooTensor lowrank_coo(std::vector<std::int64_t> dims, int rank,
                      std::int64_t nnz_target, double noise, Rng& rng);

/// Catalog entry describing a FROSTT-like synthetic stand-in.
struct TensorPreset {
  std::string name;      ///< e.g. "nell-2"
  std::vector<std::int64_t> dims;
  std::int64_t nnz;      ///< published nonzero count
  std::vector<double> fanout;  ///< CSF fanout per level below the root
};

/// Stand-ins for the paper's datasets (published shapes; fanouts chosen to
/// reproduce plausible fiber statistics).
const std::vector<TensorPreset>& tensor_presets();

/// Find a preset by name; throws when unknown.
const TensorPreset& find_preset(const std::string& name);

/// Instantiate a preset scaled by `scale` in every mode size and in nnz
/// (fanouts preserved), so cost ratios between schedules are preserved while
/// fitting laptop memory. scale=1 reproduces published sizes.
CooTensor make_preset_tensor(const std::string& name, double scale, Rng& rng);

/// Random dense factor matrix of shape rows x cols, entries in [-1,1).
DenseTensor random_dense(std::vector<std::int64_t> dims, Rng& rng);

/// A generated contraction of one sparse tensor with a network of dense
/// factors — kernels beyond the paper suite (order-6/8 networks,
/// tensor-train chains) for the anytime planner and its differential tests.
struct GeneratedNetwork {
  std::string name;
  std::string expr;
  /// Every index extent, suite-style (name, extent) pairs.
  std::vector<std::pair<std::string, std::int64_t>> dims;
  /// Extents of the sparse operand's modes in CSF (expression) order.
  std::vector<std::int64_t> sparse_dims;

  /// Extent of index `index_name`, or -1 when unbound.
  std::int64_t dim_of(const std::string& index_name) const;
};

/// Random order-`order` contraction: sparse T(i0..i{order-1}) with one
/// dense factor per mode. Each factored mode either joins a shared rank
/// index "r" (MTTKRP-style) or gets its own output index "s<m>"
/// (TTMc-style), and with probability 1/2 one random mode keeps no factor
/// and passes straight to the output. Sparse extents jitter ±1 around
/// `sparse_extent`. Deterministic in `rng`'s seed.
GeneratedNetwork random_network(int order, std::int64_t sparse_extent,
                                std::int64_t rank_extent, Rng& rng);

/// Tensor-train (MPS) chain generalizing the suite's tttc4 shape to any
/// order: sparse T(i0..i{order-2},n) contracted with a chain
/// A0(i0,b0) * A1(b0,i1,b1) * ... whose last carriage exposes "e";
/// output Z(e,n). Deterministic (no randomness needed).
GeneratedNetwork tensor_train_network(int order, std::int64_t sparse_extent,
                                      std::int64_t bond_extent);

}  // namespace spttn
