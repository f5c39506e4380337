#include "tensor/coo_tensor.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_set>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace spttn {

CooTensor::CooTensor(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  for (std::int64_t d : dims_) SPTTN_CHECK_MSG(d > 0, "dims must be positive");
}

void CooTensor::push_back(std::span<const std::int64_t> coord, double value) {
  SPTTN_CHECK(static_cast<int>(coord.size()) == order());
  for (int m = 0; m < order(); ++m) {
    SPTTN_CHECK_MSG(coord[static_cast<std::size_t>(m)] >= 0 &&
                        coord[static_cast<std::size_t>(m)] < dim(m),
                    "coordinate out of range in mode " << m);
  }
  coords_.insert(coords_.end(), coord.begin(), coord.end());
  vals_.push_back(value);
  sorted_ = false;
}

void CooTensor::sort_dedup() {
  const int d = order();
  const std::int64_t n = nnz();
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](std::int64_t a, std::int64_t b) {
    const std::int64_t* ca = coords_.data() + a * d;
    const std::int64_t* cb = coords_.data() + b * d;
    return std::lexicographical_compare(ca, ca + d, cb, cb + d);
  });

  std::vector<std::int64_t> new_coords;
  new_coords.reserve(coords_.size());
  std::vector<double> new_vals;
  new_vals.reserve(vals_.size());
  for (std::int64_t e : perm) {
    const std::int64_t* c = coords_.data() + e * d;
    const bool dup =
        !new_vals.empty() &&
        std::equal(c, c + d, new_coords.end() - d, new_coords.end());
    if (dup) {
      new_vals.back() += vals_[static_cast<std::size_t>(e)];
    } else {
      new_coords.insert(new_coords.end(), c, c + d);
      new_vals.push_back(vals_[static_cast<std::size_t>(e)]);
    }
  }
  coords_ = std::move(new_coords);
  vals_ = std::move(new_vals);
  sorted_ = true;
}

std::int64_t CooTensor::nnz_prefix(int k) const {
  SPTTN_CHECK_MSG(sorted_, "nnz_prefix requires sort_dedup()");
  SPTTN_CHECK(k >= 0 && k <= order());
  if (k == 0) return nnz() > 0 ? 1 : 0;
  const int d = order();
  std::int64_t count = 0;
  for (std::int64_t e = 0; e < nnz(); ++e) {
    if (e == 0) {
      ++count;
      continue;
    }
    const std::int64_t* prev = coords_.data() + (e - 1) * d;
    const std::int64_t* cur = coords_.data() + e * d;
    if (!std::equal(cur, cur + k, prev)) ++count;
  }
  return count;
}

std::int64_t CooTensor::nnz_projection(std::span<const int> modes) const {
  if (modes.empty()) return nnz() > 0 ? 1 : 0;
  const int d = order();
  // Fast path: pack the projected coordinates into one 64-bit key. The keys
  // are the coordinates themselves (mixed-radix), not hashes, so distinct
  // projections can never collide.
  int total_bits = 0;
  for (int m : modes) {
    total_bits += std::bit_width(static_cast<std::uint64_t>(dim(m) - 1));
  }
  if (total_bits <= 64) {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(static_cast<std::size_t>(nnz()) * 2);
    for (std::int64_t e = 0; e < nnz(); ++e) {
      const std::int64_t* c = coords_.data() + e * d;
      std::uint64_t key = 0;
      for (int m : modes) {
        key = key * static_cast<std::uint64_t>(dim(m)) +
              static_cast<std::uint64_t>(c[m]);
      }
      seen.insert(key);
    }
    return static_cast<std::int64_t>(seen.size());
  }
  // Huge-extent fallback: compare full coordinate tuples. Sort entry ids by
  // projected coordinate and count runs — exact, deterministic, O(n log n).
  const auto proj_less = [&](std::int64_t a, std::int64_t b) {
    const std::int64_t* ca = coords_.data() + a * d;
    const std::int64_t* cb = coords_.data() + b * d;
    for (int m : modes) {
      if (ca[m] != cb[m]) return ca[m] < cb[m];
    }
    return false;
  };
  std::vector<std::int64_t> perm(static_cast<std::size_t>(nnz()));
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), proj_less);
  std::int64_t count = 0;
  for (std::size_t e = 0; e < perm.size(); ++e) {
    if (e == 0 || proj_less(perm[e - 1], perm[e])) ++count;
  }
  return count;
}

std::uint64_t CooTensor::structure_hash(std::int64_t begin,
                                        std::int64_t end) const {
  SPTTN_CHECK_MSG(0 <= begin && begin <= end && end <= nnz(),
                  "entry range [" << begin << ", " << end << ") outside nnz "
                                  << nnz());
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  h = hash_mix(h ^ static_cast<std::uint64_t>(order()));
  for (std::int64_t dsz : dims_) {
    h = hash_mix(h ^ static_cast<std::uint64_t>(dsz));
  }
  h = hash_mix(h ^ static_cast<std::uint64_t>(end - begin));
  for (std::int64_t i = begin * order(); i < end * order(); ++i) {
    h = hash_mix(h ^ static_cast<std::uint64_t>(
                         coords_[static_cast<std::size_t>(i)]));
  }
  // Never 0: callers use 0 as "no fingerprint available".
  return h == 0 ? 1 : h;
}

void CooTensor::fill_random_values(Rng& rng) {
  for (double& v : vals_) v = 2.0 * rng.next_double() - 1.0;
}

double CooTensor::value_sum() const {
  double s = 0;
  for (double v : vals_) s += v;
  return s;
}

std::string CooTensor::describe() const {
  std::string s = "coo[";
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    if (m) s += "x";
    s += std::to_string(dims_[m]);
  }
  return s + ", nnz=" + std::to_string(nnz()) + "]";
}

}  // namespace spttn
