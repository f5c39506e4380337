// Reusable execution sessions — "bind a sparse tensor once, serve many
// contractions" (the serving half of the plan/format caching layer).
//
// A Session owns one CSF build and one exact SparsityStats extraction for
// its sparse tensor and resolves every kernel expression through a
// KernelCache, so iterative drivers (CP-ALS sweeps, Tucker-HOOI, gradient
// epochs) and request-serving loops pay the planner search at most once
// per distinct kernel — and not even once when a previous session over the
// same structure already populated the cache.
//
//   Session s(tensor);
//   const int mttkrp = s.prepare("M(i,r) = T(i,j,k)*B(j,r)*C(k,r)", {&B,&C});
//   DenseTensor out = s.make_output(mttkrp);
//   for (int sweep = 0; sweep < n; ++sweep) s.run(mttkrp, &out);   // no search
//
// Serving is synchronous: concurrent clients call run()/run_with() from
// their own threads against one session, and each call returns only after
// its execution finished.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/kernel_cache.hpp"

namespace spttn {

/// One sparse tensor bound for repeated/batched contraction service.
///
/// Thread-safety: prepare() calls must not race with each other or with
/// executions. run()/run_with() on already prepared kernels are safe from
/// concurrent threads (the cached executors build private runtime state
/// per execution). values() mutation must be externally ordered against
/// executions, like any tensor data.
class Session {
 public:
  /// Bind `sparse` (sorted) once: builds the CSF, extracts exact sparsity
  /// statistics, and computes the structure fingerprint. `cache` defaults
  /// to the process-wide KernelCache; pass a private one to isolate (e.g.
  /// in tests). The tensor must outlive the session.
  explicit Session(const CooTensor& sparse, PlannerOptions options = {},
                   KernelCache* cache = nullptr);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Resolve a kernel over the bound tensor: parse, bind dims against the
  /// dense factors (in order of appearance), and fetch-or-plan through the
  /// cache. Returns a kernel id for run(). Preparing the same expression
  /// with the same sparse operand again returns the existing id (the
  /// factor pointers of the first call stay bound). The dense tensors must
  /// outlive the session.
  int prepare(const std::string& expr,
              std::vector<const DenseTensor*> dense_factors,
              const std::string& sparse_name = "");

  /// Execute a prepared kernel. Exactly one of out_dense/out_sparse
  /// applies (kernel output dense vs sharing the sparse pattern).
  /// `num_threads` > 1 partitions the root loops over the process pool.
  void run(int kernel_id, DenseTensor* out_dense,
           std::span<double> out_sparse = {}, int num_threads = 1);

  /// Execute with replacement dense bindings (same shapes as prepared) —
  /// the per-mode kernel families of ALS-style drivers rebind factors
  /// between invocations.
  void run_with(int kernel_id,
                const std::vector<const DenseTensor*>& dense_factors,
                DenseTensor* out_dense, std::span<double> out_sparse = {},
                int num_threads = 1);

  /// Allocate a correctly shaped dense output for a prepared kernel.
  DenseTensor make_output(int kernel_id) const;

  int num_kernels() const;
  const Kernel& kernel(int kernel_id) const;
  /// The (possibly cached) plan serving this kernel.
  const Plan& plan(int kernel_id) const;
  /// True when prepare() found the plan already cached (no search ran).
  bool plan_was_cached(int kernel_id) const;

  /// Mutable nonzero values of the bound CSF, aligned with the sorted COO
  /// entry order — in-place value updates (residuals, reweighting) reuse
  /// every cached plan because plans depend only on structure.
  std::span<double> values();

  const CsfTensor& csf() const;
  const SparsityStats& stats() const;
  /// Structure fingerprint of the bound tensor (CooTensor::structure_hash).
  std::uint64_t fingerprint() const;
  KernelCache& cache() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spttn
