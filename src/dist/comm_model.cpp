#include "dist/comm_model.hpp"

#include <cmath>

namespace spttn {

namespace {

double log2_ceil(int p) {
  int steps = 0;
  for (int span = 1; span < p; span *= 2) ++steps;
  return static_cast<double>(steps);
}

double collective(std::int64_t bytes, int p, double latency_terms,
                  double volume_factor, const CommParams& params) {
  if (p <= 1 || bytes <= 0) return 0.0;
  return latency_terms * params.alpha_seconds +
         volume_factor * static_cast<double>(bytes) *
             params.beta_seconds_per_byte;
}

}  // namespace

double allreduce_seconds(std::int64_t bytes, int p, const CommParams& params) {
  const double frac = static_cast<double>(p - 1) / static_cast<double>(p);
  return collective(bytes, p, 2 * log2_ceil(p), 2 * frac, params);
}

double allgather_seconds(std::int64_t bytes, int p, const CommParams& params) {
  const double frac = static_cast<double>(p - 1) / static_cast<double>(p);
  return collective(bytes, p, log2_ceil(p), frac, params);
}

}  // namespace spttn
