// Coordinate-format sparse tensor.
//
// COO is the interchange format: generators produce COO, the distributed
// layer partitions COO, and CSF trees (the execution format) are built from
// sorted COO. Per-prefix nonzero counts nnz(I1...Ik) — Section 2.2 of the
// paper — are computed here and drive the contraction-path cost model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace spttn {

class Rng;

/// Sparse tensor in coordinate format with double values.
///
/// Coordinates are stored row-major: entry e occupies
/// coords[e*order .. e*order+order-1].
class CooTensor {
 public:
  CooTensor() = default;
  explicit CooTensor(std::vector<std::int64_t> dims);

  int order() const { return static_cast<int>(dims_.size()); }
  const std::vector<std::int64_t>& dims() const { return dims_; }
  std::int64_t dim(int mode) const {
    return dims_[static_cast<std::size_t>(mode)];
  }
  std::int64_t nnz() const { return static_cast<std::int64_t>(vals_.size()); }

  /// Append one entry (does not check for duplicates; call sort_dedup()).
  void push_back(std::span<const std::int64_t> coord, double value);
  void push_back(std::initializer_list<std::int64_t> coord, double value) {
    push_back(std::span<const std::int64_t>(coord.begin(), coord.size()),
              value);
  }

  /// Coordinate of entry e (span of `order` values).
  std::span<const std::int64_t> coord(std::int64_t e) const {
    return {coords_.data() + e * order(), static_cast<std::size_t>(order())};
  }
  double value(std::int64_t e) const {
    return vals_[static_cast<std::size_t>(e)];
  }
  double& value(std::int64_t e) { return vals_[static_cast<std::size_t>(e)]; }
  std::span<const double> values() const { return vals_; }
  std::span<double> values() { return vals_; }

  /// Sort entries lexicographically by coordinate and sum duplicates.
  void sort_dedup();
  bool is_sorted() const { return sorted_; }

  /// nnz(I1..Ik): number of distinct length-k coordinate prefixes
  /// (paper Section 2.2). Requires sorted tensor; k in [0, order].
  std::int64_t nnz_prefix(int k) const;

  /// Number of distinct projections onto an arbitrary subset of modes
  /// (the generalized reduced-tensor nonzero count). Exact: projected
  /// coordinates are packed into 64-bit keys when the projected extents
  /// fit, and compared as full tuples otherwise, so the count can never be
  /// skewed by hash collisions. Does not require sortedness. `modes` lists
  /// mode positions in [0, order).
  std::int64_t nnz_projection(std::span<const int> modes) const;

  /// Fingerprint of the sparsity structure: dims, nnz, and every
  /// coordinate in entry storage order (values excluded). Compare hashes
  /// between sort_dedup()ed tensors only — sorting canonicalizes the
  /// entry order, making the hash a pure function of the coordinate set.
  /// Two sorted tensors with equal hashes share every planner-relevant
  /// statistic, so plans and compiled executors keyed on it are safely
  /// reusable across tensors that differ only in values (e.g. a residual
  /// sharing a pattern).
  std::uint64_t structure_hash() const { return structure_hash(0, nnz()); }
  /// structure_hash() of entries [begin, end) alone, as if they were a
  /// tensor of their own with the same dims.
  std::uint64_t structure_hash(std::int64_t begin, std::int64_t end) const;

  /// Replace values with i.i.d. uniform values in [-1, 1).
  void fill_random_values(Rng& rng);

  /// Total of all values (test helper).
  double value_sum() const;

  /// Short description like "coo[1024x1024x1024, nnz=1048576]".
  std::string describe() const;

  /// Direct access for bulk operations (distribution layer).
  const std::vector<std::int64_t>& raw_coords() const { return coords_; }

 private:
  std::vector<std::int64_t> dims_;
  std::vector<std::int64_t> coords_;
  std::vector<double> vals_;
  bool sorted_ = false;
};

}  // namespace spttn
