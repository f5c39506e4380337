// Exhaustive and sampled enumeration of loop orders for a contraction path
// (paper Section 4.1.2/4.1.3).
//
// Enumeration is what makes autotuning possible for cost functions that are
// not tree-separable (bench_fig10_loop_orders times sampled orders), and
// the ground-truth oracle against which Algorithm 1 is property-tested.
#pragma once

#include <cstdint>
#include <functional>

#include "core/cost.hpp"
#include "core/loop_order.hpp"

namespace spttn {

class Rng;

struct EnumerateOptions {
  /// Only orders where sparse-carrying terms iterate sparse modes in CSF
  /// storage order (Section 5 restriction).
  bool restrict_csf_order = true;
  /// Stop after visiting this many orders (0 = unlimited).
  std::uint64_t limit = 0;
};

/// Visit every loop order of the path (cartesian product of per-term
/// permutations). Returns the number visited.
std::uint64_t enumerate_orders(const Kernel& kernel,
                               const ContractionPath& path,
                               const EnumerateOptions& options,
                               const std::function<void(const LoopOrder&)>& visit);

/// Count without visiting: product over terms of |I_i|! (or |I_i|!/k_i! with
/// the CSF restriction, k_i = number of sparse-carrying sparse refs).
double count_orders(const Kernel& kernel, const ContractionPath& path,
                    bool restrict_csf_order);

/// Uniformly sample `count` loop orders (with replacement over the order
/// space) — used by the Figure-10 experiment.
std::vector<LoopOrder> sample_orders(const Kernel& kernel,
                                     const ContractionPath& path,
                                     const EnumerateOptions& options,
                                     std::size_t count, Rng& rng);

/// Result of brute-force search over all loop orders.
struct EnumerationSearchResult {
  bool feasible = false;
  LoopOrder best;
  Cost best_cost = Cost::inf();
  std::uint64_t visited = 0;
};

/// Minimum-cost order by exhaustive evaluation (the oracle for the DP).
EnumerationSearchResult search_orders(const Kernel& kernel,
                                      const ContractionPath& path,
                                      const TreeCost& cost,
                                      const EnumerateOptions& options);

}  // namespace spttn
