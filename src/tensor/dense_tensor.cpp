#include "tensor/dense_tensor.hpp"

#include <algorithm>
#include <cmath>

#include "util/checked.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace spttn {

DenseTensor::DenseTensor(std::vector<std::int64_t> dims)
    : dims_(std::move(dims)) {
  strides_.resize(dims_.size());
  std::int64_t stride = 1;
  for (std::size_t m = dims_.size(); m-- > 0;) {
    SPTTN_CHECK_MSG(dims_[m] > 0, "dense dimension must be positive");
    strides_[m] = stride;
    stride = checked_mul(stride, dims_[m]);
  }
  data_.assign(static_cast<std::size_t>(stride), 0.0);
}

std::int64_t DenseTensor::offset(std::span<const std::int64_t> idx) const {
  SPTTN_CHECK_MSG(idx.size() == dims_.size(),
                  "index arity " << idx.size() << " != order " << dims_.size());
  std::int64_t off = 0;
  for (std::size_t m = 0; m < idx.size(); ++m) {
    SPTTN_CHECK_MSG(idx[m] >= 0 && idx[m] < dims_[m],
                    "index " << idx[m] << " out of range for mode " << m
                             << " (dim " << dims_[m] << ")");
    off += idx[m] * strides_[m];
  }
  return off;
}

void DenseTensor::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void DenseTensor::fill_random(Rng& rng) {
  for (double& x : data_) x = 2.0 * rng.next_double() - 1.0;
}

double DenseTensor::max_abs_diff(const DenseTensor& other) const {
  SPTTN_CHECK(dims_ == other.dims_);
  double m = 0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

double DenseTensor::norm() const {
  double s = 0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

std::string DenseTensor::describe() const {
  std::string s = "dense[";
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    if (m) s += "x";
    s += std::to_string(dims_[m]);
  }
  return s + "]";
}

}  // namespace spttn
