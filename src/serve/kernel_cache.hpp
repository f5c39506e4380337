// Plan/format cache — the search-once-execute-many half of the serving
// layer (ROADMAP: caching / batching / heavy traffic).
//
// The paper's value proposition is that one planner search amortizes over
// many executions of the same kernel. KernelCache makes that amortization
// a process-wide property instead of a per-call-site discipline: it
// memoizes the planner's result (Plan) together with the compiled loop
// nest (FusedExecutor) under a canonical kernel signature — expression
// structure, which input is sparse, index extents, planner options, and an
// exact sparsity fingerprint — so any consumer (sessions, the CP/Tucker
// decompositions in apps/, the simulated distributed runtime) that binds a
// structurally identical problem skips the path search and order DP
// entirely.
//
// Admission policy: an entry-count bound with LRU eviction (capacity 0 is
// a pass-through) and single-flight planning, so concurrent misses on one
// signature cost one search. Every entry comes from the planner: either
// get_or_plan plans it here, or load_dir re-admits one this process or
// another saved. save_dir writes every resident plan as a versioned,
// checksummed artifact (core/plan_io) stamped with the planner's
// cost-model identity, and load_dir re-admits them through the static plan
// verifier plus the sparsity-fingerprint and cost-model checks, so a
// restarted process serves every warmed kernel with zero planner searches
// — and a stale, corrupted or hand-edited artifact can never reach an
// executor.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "exec/executor.hpp"
#include "exec/spttn.hpp"

namespace spttn {

/// Canonical identity of a planned kernel. Two bound problems with equal
/// signatures have identical planner inputs, so they share one Plan and
/// one compiled executor.
struct KernelSignature {
  /// Canonical expression rendering (tensor names, index names, order).
  std::string expr;
  /// Input position of the sparse operand (Kernel::sparse_input()); the
  /// rendering above does not say which input is sparse.
  int sparse_input = 0;
  /// Dimension of every kernel index, in index-id order.
  std::vector<std::int64_t> extents;
  /// Exact sparsity-structure fingerprint (SparsityStats::fingerprint());
  /// 0 for modeled stats — such signatures still cache, keyed on the
  /// modeled prefix counts being absent, but never match an exact one.
  std::uint64_t sparsity_fingerprint = 0;
  /// Hash of the PlannerOptions fields that affect the chosen plan
  /// (verify is excluded: it never changes the plan).
  std::uint64_t options_hash = 0;

  bool operator==(const KernelSignature&) const = default;

  /// Combined hash for unordered containers.
  std::uint64_t hash() const;
};

/// Signature of a bound kernel under the given planner options.
KernelSignature make_signature(const Kernel& kernel,
                               const SparsityStats& stats,
                               const PlannerOptions& options);

/// Hash of the plan-relevant PlannerOptions fields.
std::uint64_t planner_options_hash(const PlannerOptions& options);

/// Thread-safe count-bounded LRU cache of planned kernels.
///
/// Entries are immutable once published and handed out as shared
/// pointers, so a hit costs one mutex-guarded map probe; eviction can
/// never invalidate an entry a caller still executes. The compiled
/// FusedExecutor's program is immutable during execution (each execute()
/// builds its own runtime state), so concurrent executions of one cached
/// entry are safe — that is what lets many serving sessions share it.
class KernelCache {
 public:
  /// One memoized planning result.
  struct Entry {
    KernelSignature signature;
    Kernel kernel;  ///< dims bound; the shape the executor validates against
    Plan plan;
    /// Compiled nest; safe for concurrent execute() calls.
    std::shared_ptr<FusedExecutor> exec;
  };

  /// Hit/miss/eviction counters for observability (bench_serve, the
  /// serving example, and capacity tuning). `planned` counts actual
  /// planner searches; with single-flight deduplication it can be far
  /// below `misses` under concurrent load (the difference shows up in
  /// `coalesced`).
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< LRU evictions at capacity
    std::uint64_t inserts = 0;
    /// Planner searches actually executed (misses that were not coalesced).
    std::uint64_t planned = 0;
    /// Misses served by waiting on another thread's in-flight search for
    /// the same signature instead of running a duplicate search.
    std::uint64_t coalesced = 0;
    std::size_t entries = 0;
  };

  /// `capacity` bounds the number of resident entries; past it the least
  /// recently used entry is evicted. Capacity 0 makes the cache a
  /// pass-through: get_or_plan still plans, verifies and returns working
  /// entries (and still deduplicates concurrent planning), but nothing is
  /// ever inserted — there is no insert-then-immediately-evict churn.
  explicit KernelCache(std::size_t capacity = 128);
  ~KernelCache();

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// The workhorse: return the cached entry for (kernel, stats, options),
  /// planning and compiling on a miss. Planning runs outside the cache
  /// lock, so concurrent misses on different kernels search concurrently;
  /// concurrent misses on the SAME signature are single-flighted — one
  /// thread runs the search, the others block on its result and share the
  /// published entry (Counters::coalesced), so N racing clients cost one
  /// planner search instead of N. If the search throws, every coalesced
  /// waiter observes the same error. `was_cached`, when non-null, reports
  /// whether the entry was served without running the planner on this
  /// thread (a resident hit or a coalesced wait).
  ///
  /// Admission gate: a freshly planned entry is published only after the
  /// static plan verifier passes, including the cross-check of its region
  /// classification against the compiled executor's locality analysis
  /// (analysis/plan_verifier.hpp); throws spttn::Error otherwise.
  std::shared_ptr<const Entry> get_or_plan(const Kernel& kernel,
                                           const SparsityStats& stats,
                                           const PlannerOptions& options = {},
                                           bool* was_cached = nullptr);
  std::shared_ptr<const Entry> get_or_plan(const BoundKernel& bound,
                                           const PlannerOptions& options = {},
                                           bool* was_cached = nullptr);

  /// Outcome of one save_dir/load_dir sweep. `errors` carries one
  /// structured message per artifact that failed (I/O, deserialization,
  /// verification, fingerprint drift); the sweep itself never throws for
  /// per-file defects.
  struct DirReport {
    int processed = 0;  ///< artifacts written (save) or admitted (load)
    int rejected = 0;   ///< artifacts skipped with an error
    std::vector<std::string> errors;

    std::string to_string() const;
  };

  /// Persist every resident entry to `dir` (created if needed) as one
  /// versioned artifact per signature (core/plan_io format, file name
  /// derived from the signature hash), stamped `meta cost_model
  /// <kCostModelVersion>`. Concurrent cache use is safe; the
  /// sweep snapshots the resident set. Throws spttn::Error only when `dir`
  /// cannot be created; per-file failures land in the report.
  DirReport save_dir(const std::string& dir) const;

  /// Re-admit previously saved artifacts: every `*.plan` file in `dir` is
  /// deserialized, its kernel rebuilt, and the plan pushed through the
  /// full admission gate — the sparsity-fingerprint consistency check
  /// (the artifact's signature fingerprint must equal the plan's recorded
  /// fingerprint), the cost-model stamp (it must equal kCostModelVersion),
  /// the static plan verifier's structural rules and the executor locality
  /// cross-check — before it becomes resident. A corrupted, truncated,
  /// version-mismatched, wrong-fingerprint or other-model artifact is
  /// rejected with a structured error; it can never execute, and the
  /// kernel re-plans on its next get_or_plan.
  /// Loaded entries count as inserts, not planner searches — after a warm
  /// load, get_or_plan over the same problems is pure hits
  /// (Counters::planned stays 0). On a pass-through cache the sweep
  /// rejects everything (nothing can become resident).
  DirReport load_dir(const std::string& dir);

  Counters counters() const;
  std::size_t capacity() const;
  void clear();

  /// Process-wide cache shared by the convenience overloads
  /// (spttn::plan_kernel/run_plan with a cache), the decomposition
  /// drivers, and DistSpttn.
  static KernelCache& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Cache-aware planning: fetch or compute the plan for `bound`.
Plan plan_kernel(const BoundKernel& bound, const PlannerOptions& options,
                 KernelCache& cache);

/// Cache-aware execution: plan via `cache` (a hit skips the search) and run
/// the cached compiled nest against the bound tensors. Semantics otherwise
/// match run_plan(bound, plan, ...).
void run_plan(const BoundKernel& bound, KernelCache& cache,
              DenseTensor* out_dense, std::span<double> out_sparse,
              int num_threads = 1, const PlannerOptions& options = {});

}  // namespace spttn
