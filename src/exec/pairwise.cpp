#include "exec/pairwise.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"

namespace spttn {

namespace {

/// Element-sparse tensor keyed by mixed-radix packed coordinates.
struct SparseTemp {
  std::vector<int> ids;                      ///< index ids, fixed order
  std::vector<std::int64_t> radix_stride;    ///< per-id packing stride
  std::unordered_map<std::int64_t, double> entries;

  void init(const Kernel& kernel, const std::vector<int>& index_ids) {
    ids = index_ids;
    radix_stride.resize(ids.size());
    std::int64_t stride = 1;
    for (std::size_t m = ids.size(); m-- > 0;) {
      radix_stride[m] = stride;
      const double next = static_cast<double>(stride) *
                          static_cast<double>(kernel.index_dim(ids[m]));
      SPTTN_CHECK_MSG(next < 9.0e18, "intermediate key space overflows");
      stride = static_cast<std::int64_t>(kernel.index_dim(ids[m])) * stride;
    }
  }
};

/// One side of a pairwise contraction, adapted to a common interface:
/// iterate (coordinates, value) entries.
struct OperandView {
  // Exactly one of these is active.
  const SparseTemp* temp = nullptr;
  const CooTensor* coo = nullptr;
  const DenseTensor* dense_tensor = nullptr;
  std::vector<int> ids;  ///< index ids of this operand

  bool is_dense() const { return dense_tensor != nullptr; }
  std::int64_t sparse_entry_count() const {
    if (temp != nullptr) return static_cast<std::int64_t>(temp->entries.size());
    if (coo != nullptr) return coo->nnz();
    return 0;
  }
};

}  // namespace

PairwiseStats pairwise_execute(const Kernel& kernel,
                               const ContractionPath& path,
                               const CooTensor& sparse,
                               std::span<const DenseTensor* const> dense,
                               DenseTensor* out_dense,
                               std::span<double> out_sparse,
                               std::int64_t max_entries) {
  SPTTN_CHECK(kernel.dims_bound());
  PairwiseStats stats;
  const bool sparse_out = kernel.output_is_sparse();
  if (sparse_out) {
    SPTTN_CHECK(static_cast<std::int64_t>(out_sparse.size()) == sparse.nnz());
    for (double& v : out_sparse) v = 0;
  } else {
    SPTTN_CHECK(out_dense != nullptr);
    out_dense->zero();
  }

  // Pattern lookup for sparse outputs: packed coordinate -> nonzero slot.
  std::unordered_map<std::int64_t, std::int64_t> pattern_pos;
  std::vector<std::int64_t> sparse_radix(
      static_cast<std::size_t>(sparse.order()));
  {
    std::int64_t stride = 1;
    for (std::size_t m = sparse_radix.size(); m-- > 0;) {
      sparse_radix[m] = stride;
      stride *= sparse.dim(static_cast<int>(m));
    }
  }
  const auto pack_sparse_coord = [&](std::span<const std::int64_t> c) {
    std::int64_t key = 0;
    for (std::size_t m = 0; m < c.size(); ++m) key += c[m] * sparse_radix[m];
    return key;
  };
  if (sparse_out) {
    pattern_pos.reserve(static_cast<std::size_t>(sparse.nnz()) * 2);
    for (std::int64_t e = 0; e < sparse.nnz(); ++e) {
      pattern_pos.emplace(pack_sparse_coord(sparse.coord(e)), e);
    }
  }

  std::vector<SparseTemp> temps(static_cast<std::size_t>(path.num_terms()));
  std::vector<std::int64_t> idx_val(
      static_cast<std::size_t>(kernel.num_indices()), 0);

  const auto operand_view = [&](const PathOperand& op) {
    OperandView v;
    if (op.kind == PathOperand::Kind::kIntermediate) {
      v.temp = &temps[static_cast<std::size_t>(op.id)];
      v.ids = v.temp->ids;
      return v;
    }
    if (op.id == kernel.sparse_input()) {
      v.coo = &sparse;
      v.ids = kernel.sparse_ref().idx;
      return v;
    }
    v.dense_tensor = dense[static_cast<std::size_t>(op.id)];
    SPTTN_CHECK(v.dense_tensor != nullptr);
    v.ids = kernel.input(op.id).idx;
    return v;
  };

  for (int t = 0; t < path.num_terms(); ++t) {
    const PathTerm& term = path.term(t);
    OperandView a = operand_view(term.lhs);
    OperandView b = operand_view(term.rhs);
    // Keep a sparse operand (if any) on the left to drive iteration.
    if (a.is_dense() && !b.is_dense()) std::swap(a, b);

    const bool last = (t + 1 == path.num_terms());
    SparseTemp* out_temp = nullptr;
    if (!last) {
      out_temp = &temps[static_cast<std::size_t>(t)];
      out_temp->init(kernel, term.out.to_vector());
    }
    const std::vector<int> out_ids =
        last ? std::vector<int>() : out_temp->ids;

    // Emit one multiply-accumulate with the currently bound idx_val.
    const auto emit = [&](double value) {
      ++stats.total_scalar_ops;
      if (!last) {
        std::int64_t key = 0;
        for (std::size_t m = 0; m < out_ids.size(); ++m) {
          key += idx_val[static_cast<std::size_t>(out_ids[m])] *
                 out_temp->radix_stride[m];
        }
        out_temp->entries[key] += value;
        SPTTN_CHECK_MSG(
            static_cast<std::int64_t>(out_temp->entries.size()) <=
                max_entries,
            "pairwise intermediate exceeds memory cap ("
                << max_entries << " entries) — the baseline's OOM condition");
        return;
      }
      if (sparse_out) {
        std::int64_t key = 0;
        for (int m = 0; m < sparse.order(); ++m) {
          key += idx_val[static_cast<std::size_t>(
                     kernel.sparse_ref().idx[static_cast<std::size_t>(m)])] *
                 sparse_radix[static_cast<std::size_t>(m)];
        }
        const auto it = pattern_pos.find(key);
        SPTTN_CHECK(it != pattern_pos.end());
        out_sparse[static_cast<std::size_t>(it->second)] += value;
        return;
      }
      std::vector<std::int64_t> access;
      access.reserve(kernel.output().idx.size());
      for (int id : kernel.output().idx) {
        access.push_back(idx_val[static_cast<std::size_t>(id)]);
      }
      out_dense->at(access) += value;
    };

    // Iterate the free (non-shared-with-a) indices of b densely.
    const auto iterate_b_free = [&](auto&& self, const std::vector<int>& free,
                                    std::size_t level, double av) -> void {
      if (level == free.size()) {
        double bv = 1.0;
        if (b.is_dense()) {
          std::vector<std::int64_t> access;
          access.reserve(b.ids.size());
          for (int id : b.ids) {
            access.push_back(idx_val[static_cast<std::size_t>(id)]);
          }
          bv = b.dense_tensor->at(access);
        }
        emit(av * bv);
        return;
      }
      const int id = free[level];
      for (std::int64_t v = 0; v < kernel.index_dim(id); ++v) {
        idx_val[static_cast<std::size_t>(id)] = v;
        self(self, free, level + 1, av);
      }
    };

    // Shared ids between the operands (for sparse-sparse joins).
    std::vector<int> shared;
    for (int id : a.ids) {
      if (std::find(b.ids.begin(), b.ids.end(), id) != b.ids.end()) {
        shared.push_back(id);
      }
    }
    std::vector<int> b_free;
    for (int id : b.ids) {
      if (std::find(a.ids.begin(), a.ids.end(), id) == a.ids.end()) {
        b_free.push_back(id);
      }
    }

    const auto for_each_a = [&](const auto& fn) {
      if (a.coo != nullptr) {
        for (std::int64_t e = 0; e < a.coo->nnz(); ++e) {
          const auto c = a.coo->coord(e);
          for (std::size_t m = 0; m < a.ids.size(); ++m) {
            idx_val[static_cast<std::size_t>(a.ids[m])] = c[m];
          }
          fn(a.coo->value(e));
        }
      } else if (a.temp != nullptr) {
        for (const auto& [key, value] : a.temp->entries) {
          std::int64_t rem = key;
          for (std::size_t m = 0; m < a.ids.size(); ++m) {
            idx_val[static_cast<std::size_t>(a.ids[m])] =
                rem / a.temp->radix_stride[m];
            rem %= a.temp->radix_stride[m];
          }
          fn(value);
        }
      } else {
        // Dense-dense term: iterate a's full index space.
        const auto loop = [&](auto&& self, std::size_t level) -> void {
          if (level == a.ids.size()) {
            std::vector<std::int64_t> access;
            access.reserve(a.ids.size());
            for (int id : a.ids) {
              access.push_back(idx_val[static_cast<std::size_t>(id)]);
            }
            fn(a.dense_tensor->at(access));
            return;
          }
          const int id = a.ids[level];
          for (std::int64_t v = 0; v < kernel.index_dim(id); ++v) {
            idx_val[static_cast<std::size_t>(id)] = v;
            self(self, level + 1);
          }
        };
        loop(loop, 0);
      }
    };

    if (!b.is_dense()) {
      // Sparse-sparse join: index b's entries by shared-coordinate key.
      std::vector<std::int64_t> shared_radix(shared.size());
      {
        std::int64_t stride = 1;
        for (std::size_t m = shared.size(); m-- > 0;) {
          shared_radix[m] = stride;
          stride *= kernel.index_dim(shared[m]);
        }
      }
      const auto shared_key = [&] {
        std::int64_t key = 0;
        for (std::size_t m = 0; m < shared.size(); ++m) {
          key += idx_val[static_cast<std::size_t>(shared[m])] *
                 shared_radix[m];
        }
        return key;
      };
      // entry -> (packed free coords of b, value)
      struct BEntry {
        std::vector<std::int64_t> free_vals;
        double value;
      };
      std::unordered_multimap<std::int64_t, BEntry> b_index;
      {
        OperandView bb = b;
        std::swap(a, bb);  // reuse for_each_a machinery on b
        for_each_a([&](double value) {
          BEntry e;
          e.free_vals.reserve(b_free.size());
          for (int id : b_free) {
            e.free_vals.push_back(idx_val[static_cast<std::size_t>(id)]);
          }
          e.value = value;
          b_index.emplace(shared_key(), std::move(e));
        });
        std::swap(a, bb);
      }
      for_each_a([&](double av) {
        auto [lo, hi] = b_index.equal_range(shared_key());
        for (auto it = lo; it != hi; ++it) {
          for (std::size_t m = 0; m < b_free.size(); ++m) {
            idx_val[static_cast<std::size_t>(b_free[m])] =
                it->second.free_vals[m];
          }
          emit(av * it->second.value);
        }
      });
    } else {
      for_each_a(
          [&](double av) { iterate_b_free(iterate_b_free, b_free, 0, av); });
    }

    stats.peak_intermediate_entries =
        std::max(stats.peak_intermediate_entries,
                 out_temp == nullptr
                     ? 0
                     : static_cast<std::int64_t>(out_temp->entries.size()));
    // Free consumed intermediates eagerly, like a real runtime would.
    const auto release = [&](const PathOperand& op) {
      if (op.kind == PathOperand::Kind::kIntermediate) {
        temps[static_cast<std::size_t>(op.id)].entries.clear();
      }
    };
    release(term.lhs);
    release(term.rhs);
  }
  return stats;
}

namespace {

/// Distinct projections of the sparse tensor onto subsets of its CSF levels
/// (bitmask over levels), counted on the tensor once per mask: a
/// materialized sparse-derived intermediate holds exactly that projection.
class ProjectionCounts {
 public:
  ProjectionCounts(const Kernel& kernel, const CooTensor& sparse)
      : sparse_(sparse) {
    SPTTN_CHECK_MSG(sparse.is_sorted(),
                    "pairwise estimate needs a sort_dedup()ed tensor");
    SPTTN_CHECK(sparse.order() == kernel.sparse_ref().order());
  }

  std::int64_t nnz() const { return sparse_.nnz(); }

  std::int64_t operator()(std::uint64_t level_mask) {
    const auto [it, fresh] = counts_.try_emplace(level_mask, 0);
    if (fresh) {
      std::vector<int> modes;
      for (int l = 0; l < sparse_.order(); ++l) {
        if ((level_mask >> l) & 1) modes.push_back(l);
      }
      it->second = sparse_.nnz_projection(modes);
    }
    return it->second;
  }

 private:
  const CooTensor& sparse_;
  std::unordered_map<std::uint64_t, std::int64_t> counts_;
};

/// Materialized entry count of a path operand under pairwise execution.
double operand_entries(const Kernel& kernel, const PathOperand& op,
                       bool carries_sparse, ProjectionCounts& projections) {
  if (op.kind == PathOperand::Kind::kInput &&
      op.id == kernel.sparse_input()) {
    return static_cast<double>(projections.nnz());
  }
  // Dense inputs and dense-derived intermediates span their full space;
  // sparse-derived intermediates keep the pattern projection on their
  // sparse modes times dense extents.
  const IndexSet sparse_part = op.iset & kernel.sparse_modes();
  double entries = 1;
  if (carries_sparse && !sparse_part.empty()) {
    std::uint64_t mask = 0;
    for (int id : sparse_part.elements()) {
      mask |= (std::uint64_t{1} << kernel.csf_level(id));
    }
    entries *= static_cast<double>(projections(mask));
    for (int id : (op.iset - sparse_part).elements()) {
      entries *= static_cast<double>(kernel.index_dim(id));
    }
    return entries;
  }
  for (int id : op.iset.elements()) {
    entries *= static_cast<double>(kernel.index_dim(id));
  }
  return entries;
}

double path_flops(const Kernel& kernel, const ContractionPath& path,
                  ProjectionCounts& projections) {
  // Track which operands carry sparse structure through the path.
  std::vector<bool> term_carries(static_cast<std::size_t>(path.num_terms()));
  const auto carries = [&](const PathOperand& op) {
    if (op.kind == PathOperand::Kind::kInput) {
      return op.id == kernel.sparse_input();
    }
    return static_cast<bool>(term_carries[static_cast<std::size_t>(op.id)]);
  };
  double total = 0;
  for (int t = 0; t < path.num_terms(); ++t) {
    const PathTerm& term = path.term(t);
    const bool lhs_sparse = carries(term.lhs);
    const bool rhs_sparse = carries(term.rhs);
    term_carries[static_cast<std::size_t>(t)] = lhs_sparse || rhs_sparse;
    const double le =
        operand_entries(kernel, term.lhs, lhs_sparse, projections);
    const double re =
        operand_entries(kernel, term.rhs, rhs_sparse, projections);
    // The smaller side drives iteration; the other side contributes its
    // free-index extents per driving entry (sparse-sparse joins multiply
    // matching entries, approximated by the shared-space ratio).
    const PathOperand& drive = le <= re ? term.lhs : term.rhs;
    const PathOperand& other = le <= re ? term.rhs : term.lhs;
    double free_extent = 1;
    for (int id : (other.iset - drive.iset).elements()) {
      free_extent *= static_cast<double>(kernel.index_dim(id));
    }
    double matches = free_extent;
    if ((le <= re ? rhs_sparse : lhs_sparse)) {
      // Sparse other side: expected matches per driving entry.
      double shared = 1;
      for (int id : (other.iset & drive.iset).elements()) {
        shared *= static_cast<double>(kernel.index_dim(id));
      }
      matches = std::max(
          1.0, (le <= re ? re : le) / std::max(1.0, shared));
    }
    total += 2.0 * std::min(le, re) * matches;
  }
  return total;
}

}  // namespace

double pairwise_path_flops(const Kernel& kernel, const ContractionPath& path,
                           const CooTensor& sparse) {
  ProjectionCounts projections(kernel, sparse);
  return path_flops(kernel, path, projections);
}

ContractionPath pairwise_best_path(const Kernel& kernel,
                                   const CooTensor& sparse) {
  std::vector<ContractionPath> all = enumerate_paths(kernel);
  SPTTN_CHECK(!all.empty());
  ProjectionCounts projections(kernel, sparse);
  std::size_t best = 0;
  double best_flops = path_flops(kernel, all[0], projections);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const double f = path_flops(kernel, all[i], projections);
    if (f < best_flops) {
      best_flops = f;
      best = i;
    }
  }
  return all[best];
}

}  // namespace spttn
