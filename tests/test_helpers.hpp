// Shared fixtures for the spttn test suite: kernel templates from the paper
// plus randomized instantiation helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "exec/spttn.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spttn::testing {

/// Pin the global pool to real lanes for the scope of a test (single-core
/// CI boxes otherwise degrade the pool to one inline lane and the nested
/// partitioner correctly refuses to over-split), then restore the default
/// on destruction — including on early return from a failed ASSERT, so one
/// failure cannot leak a pinned pool into later tests.
struct ScopedLanes {
  explicit ScopedLanes(int lanes) { ThreadPool::set_global_threads(lanes); }
  ~ScopedLanes() { ThreadPool::set_global_threads(0); }
  ScopedLanes(const ScopedLanes&) = delete;
  ScopedLanes& operator=(const ScopedLanes&) = delete;
};

/// Kernel templates and instantiation live in the library's shared suite
/// (analysis/kernel_suite.hpp) so the lint tool, the verifier bench, and
/// the tests all iterate the same kernels; these aliases keep the
/// historical testing:: names working.
using KernelCase = SuiteKernel;
using Instance = SuiteInstance;

/// The paper's kernel families (Section 2.3) at test-friendly sizes, plus a
/// few stress shapes (shared factor indices, all-mode contraction, deep
/// chains).
inline std::vector<KernelCase> paper_kernels() { return paper_kernel_suite(); }

inline std::unique_ptr<Instance> make_instance(const KernelCase& kc,
                                               std::uint64_t seed) {
  return make_suite_instance(kc, seed);
}

/// Distinct roots of `csf` that the interior rank cuts `cuts` (entry
/// offsets, as DistSpttn::leaf_cuts) fall strictly inside.
inline std::int64_t cut_root_count(const std::vector<std::int64_t>& cuts,
                                   const CsfTensor& csf) {
  const std::vector<std::int64_t> roots = csf.leaf_offsets(0);
  std::set<std::int64_t> split;
  for (std::size_t c = 1; c + 1 < cuts.size(); ++c) {
    const auto q = std::upper_bound(roots.begin(), roots.end(), cuts[c]) -
                   roots.begin();
    if (roots[static_cast<std::size_t>(q - 1)] != cuts[c]) split.insert(q - 1);
  }
  return static_cast<std::int64_t>(split.size());
}

}  // namespace spttn::testing
