// Compressed Sparse Fiber (CSF) tree — the execution format for the sparse
// operand of an SpTTN kernel (paper Section 2.2).
//
// Level l of the tree compresses mode mode_order()[l] of the source tensor.
// num_nodes(l) equals the paper's nnz(I1...I(l+1)) count for the permuted
// mode order, which the cost models consume directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"

namespace spttn {

/// CSF tree over a sorted, deduplicated COO tensor.
class CsfTensor {
 public:
  CsfTensor() = default;

  /// Build from COO. `mode_order[l]` gives the source mode compressed at
  /// level l; empty means identity order. The COO must be sort_dedup()ed.
  explicit CsfTensor(const CooTensor& coo, std::vector<int> mode_order = {});

  /// Identity-order CSF over the sorted entries [begin, end) of `coo`,
  /// keeping the full tensor's level dims: one rank's piece of a tensor cut
  /// into contiguous entry ranges. Its leaf e is entry begin + e of `coo`.
  /// The fingerprint hashes the slice's own structure and is salted, so it
  /// is nonzero and never equals the whole tensor's, even when the slice
  /// covers every entry: a plan derived from the whole tensor is refused
  /// here by the fingerprint-checked executor.
  static CsfTensor slice(const CooTensor& coo, std::int64_t begin,
                         std::int64_t end);

  int order() const { return static_cast<int>(level_dims_.size()); }
  std::int64_t nnz() const { return static_cast<std::int64_t>(vals_.size()); }

  /// Mode sizes per level (already permuted by mode_order).
  const std::vector<std::int64_t>& level_dims() const { return level_dims_; }
  /// Source-tensor mode compressed at each level.
  const std::vector<int>& mode_order() const { return mode_order_; }

  /// Number of nodes at a level == nnz over the first (level+1) permuted
  /// modes. The last level has nnz() nodes.
  std::int64_t num_nodes(int level) const {
    return static_cast<std::int64_t>(
        idx_[static_cast<std::size_t>(level)].size());
  }

  /// Index values of nodes at a level.
  std::span<const std::int64_t> level_idx(int level) const {
    return idx_[static_cast<std::size_t>(level)];
  }

  /// Child ranges: node n at `level` owns children
  /// [level_ptr(level)[n], level_ptr(level)[n+1]) at level+1.
  /// Defined for level in [0, order-2].
  std::span<const std::int64_t> level_ptr(int level) const {
    return ptr_[static_cast<std::size_t>(level)];
  }

  /// First-leaf offsets of every node at `level`, plus an end sentinel:
  /// lb[i] is the first nonzero under node i, so lb[e] - lb[b] counts the
  /// nonzeros below node range [b, e).
  std::vector<std::int64_t> leaf_offsets(int level) const;

  /// Nonzero values aligned with the last level's nodes.
  std::span<const double> vals() const { return vals_; }
  std::span<double> vals() { return vals_; }

  /// Reconstruct a COO tensor in the original (unpermuted) mode order.
  /// Test helper; round-trips with the constructor.
  CooTensor to_coo() const;

  /// Fingerprint of the source tensor's sparsity structure (coordinates,
  /// dims, nnz — values excluded), mixed with the mode order. Matches
  /// SparsityStats::fingerprint() for stats taken from the same tensor
  /// with the identity CSF order; 0 for a default-constructed CSF. The
  /// executor compares it against the plan's recorded fingerprint so a
  /// cached plan can never silently run against a structurally different
  /// tensor.
  std::uint64_t structure_fingerprint() const { return fingerprint_; }

  std::string describe() const;

 private:
  /// Fill every level from the entries perm[r] (r itself when `perm` is
  /// empty) for r in [begin, end), which are sorted in mode_order_.
  void build(const CooTensor& coo, std::int64_t begin, std::int64_t end,
             const std::vector<std::int64_t>& perm);

  std::vector<std::int64_t> level_dims_;
  std::vector<int> mode_order_;
  std::vector<std::vector<std::int64_t>> idx_;
  std::vector<std::vector<std::int64_t>> ptr_;
  std::vector<double> vals_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace spttn
