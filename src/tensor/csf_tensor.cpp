#include "tensor/csf_tensor.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace spttn {

CsfTensor::CsfTensor(const CooTensor& coo, std::vector<int> mode_order) {
  SPTTN_CHECK_MSG(coo.is_sorted(), "CSF requires sort_dedup()ed COO input");
  const int d = coo.order();
  if (mode_order.empty()) {
    mode_order.resize(static_cast<std::size_t>(d));
    std::iota(mode_order.begin(), mode_order.end(), 0);
  }
  SPTTN_CHECK_MSG(static_cast<int>(mode_order.size()) == d,
                  "mode_order size must equal tensor order");
  {
    std::vector<int> sorted = mode_order;
    std::sort(sorted.begin(), sorted.end());
    for (int m = 0; m < d; ++m) {
      SPTTN_CHECK_MSG(sorted[static_cast<std::size_t>(m)] == m,
                      "mode_order must be a permutation of 0..order-1");
    }
  }
  mode_order_ = mode_order;
  level_dims_.resize(static_cast<std::size_t>(d));
  for (int l = 0; l < d; ++l) {
    level_dims_[static_cast<std::size_t>(l)] =
        coo.dim(mode_order_[static_cast<std::size_t>(l)]);
  }

  // Sort entry ids by permuted coordinate order. If the permutation is
  // identity the COO is already sorted.
  bool identity = true;
  for (int l = 0; l < d; ++l) {
    if (mode_order_[static_cast<std::size_t>(l)] != l) identity = false;
  }
  std::vector<std::int64_t> perm;
  if (!identity) {
    perm.resize(static_cast<std::size_t>(coo.nnz()));
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](std::int64_t a, std::int64_t b) {
      const auto ca = coo.coord(a);
      const auto cb = coo.coord(b);
      for (int l = 0; l < d; ++l) {
        const int m = mode_order_[static_cast<std::size_t>(l)];
        if (ca[static_cast<std::size_t>(m)] != cb[static_cast<std::size_t>(m)])
          return ca[static_cast<std::size_t>(m)] <
                 cb[static_cast<std::size_t>(m)];
      }
      return false;
    });
  }
  build(coo, 0, coo.nnz(), perm);

  // Structure fingerprint: the identity order reproduces the source COO's
  // structure_hash() exactly (so it can be compared against stats taken
  // from the same tensor); a permuted order is mixed in because it yields
  // a different tree.
  fingerprint_ = coo.structure_hash();
  if (!identity) {
    for (int m : mode_order_) {
      fingerprint_ = hash_mix(fingerprint_ ^ static_cast<std::uint64_t>(m));
    }
    if (fingerprint_ == 0) fingerprint_ = 1;
  }
}

CsfTensor CsfTensor::slice(const CooTensor& coo, std::int64_t begin,
                           std::int64_t end) {
  SPTTN_CHECK_MSG(coo.is_sorted(), "CSF requires sort_dedup()ed COO input");
  CsfTensor s;
  s.level_dims_ = coo.dims();
  s.mode_order_.resize(static_cast<std::size_t>(coo.order()));
  std::iota(s.mode_order_.begin(), s.mode_order_.end(), 0);
  // structure_hash validates the range before build() reads it.
  const std::uint64_t h =
      hash_mix(coo.structure_hash(begin, end) ^ 0x5a1ce5a1ce5a1ce5ULL);
  s.fingerprint_ = h == 0 ? 1 : h;
  s.build(coo, begin, end, {});
  return s;
}

void CsfTensor::build(const CooTensor& coo, std::int64_t begin,
                      std::int64_t end,
                      const std::vector<std::int64_t>& perm) {
  const int d = order();
  const auto entry = [&](std::int64_t r) {
    return perm.empty() ? r : perm[static_cast<std::size_t>(r)];
  };
  idx_.assign(static_cast<std::size_t>(d), {});
  ptr_.assign(static_cast<std::size_t>(d > 0 ? d - 1 : 0), {});
  vals_.reserve(static_cast<std::size_t>(end - begin));

  // Single pass: a new node is opened at level l whenever the permuted
  // prefix of length l+1 differs from the previous entry's prefix.
  for (std::int64_t r = begin; r < end; ++r) {
    const auto c = coo.coord(entry(r));
    int first_new_level = 0;
    if (r > begin) {
      const auto p = coo.coord(entry(r - 1));
      first_new_level = d;  // may equal d if duplicate coordinate (forbidden)
      for (int l = 0; l < d; ++l) {
        const int m = mode_order_[static_cast<std::size_t>(l)];
        if (c[static_cast<std::size_t>(m)] != p[static_cast<std::size_t>(m)]) {
          first_new_level = l;
          break;
        }
      }
      SPTTN_CHECK_MSG(first_new_level < d, "duplicate coordinate in COO");
    }
    for (int l = first_new_level; l < d; ++l) {
      const int m = mode_order_[static_cast<std::size_t>(l)];
      if (l < d - 1) {
        // Opening a node at level l: record where its children start.
        ptr_[static_cast<std::size_t>(l)].push_back(static_cast<std::int64_t>(
            idx_[static_cast<std::size_t>(l + 1)].size()));
      }
      idx_[static_cast<std::size_t>(l)].push_back(
          c[static_cast<std::size_t>(m)]);
    }
    vals_.push_back(coo.value(entry(r)));
  }
  // Close the ptr arrays with end sentinels.
  for (int l = 0; l + 1 < d; ++l) {
    ptr_[static_cast<std::size_t>(l)].push_back(
        static_cast<std::int64_t>(idx_[static_cast<std::size_t>(l + 1)].size()));
  }
}

std::vector<std::int64_t> CsfTensor::leaf_offsets(int level) const {
  const std::int64_t n = num_nodes(level);
  std::vector<std::int64_t> lb(static_cast<std::size_t>(n) + 1);
  for (std::int64_t i = 0; i <= n; ++i) lb[static_cast<std::size_t>(i)] = i;
  for (int lvl = level; lvl + 1 < order(); ++lvl) {
    const auto ptr = level_ptr(lvl);
    for (auto& b : lb) b = ptr[static_cast<std::size_t>(b)];
  }
  return lb;
}

CooTensor CsfTensor::to_coo() const {
  const int d = order();
  std::vector<std::int64_t> dims(static_cast<std::size_t>(d));
  for (int l = 0; l < d; ++l) {
    dims[static_cast<std::size_t>(mode_order_[static_cast<std::size_t>(l)])] =
        level_dims_[static_cast<std::size_t>(l)];
  }
  CooTensor out(dims);

  // Depth-first walk carrying the partial coordinate.
  std::vector<std::int64_t> coord(static_cast<std::size_t>(d));
  struct Frame {
    int level;
    std::int64_t n;
  };
  // Iterative DFS over node ranges.
  std::vector<Frame> stack;
  for (std::int64_t n0 = 0; n0 < num_nodes(0); ++n0) {
    stack.push_back({0, n0});
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      coord[static_cast<std::size_t>(
          mode_order_[static_cast<std::size_t>(f.level)])] =
          idx_[static_cast<std::size_t>(f.level)]
              [static_cast<std::size_t>(f.n)];
      if (f.level == d - 1) {
        out.push_back(coord, vals_[static_cast<std::size_t>(f.n)]);
        continue;
      }
      const auto p = level_ptr(f.level);
      // Push children in reverse so DFS visits them in ascending order.
      for (std::int64_t ch = p[static_cast<std::size_t>(f.n + 1)];
           ch-- > p[static_cast<std::size_t>(f.n)];) {
        stack.push_back({f.level + 1, ch});
      }
    }
  }
  out.sort_dedup();
  return out;
}

std::string CsfTensor::describe() const {
  std::string s = "csf[levels=";
  for (int l = 0; l < order(); ++l) {
    if (l) s += ",";
    s += std::to_string(num_nodes(l));
  }
  return s + "]";
}

}  // namespace spttn
