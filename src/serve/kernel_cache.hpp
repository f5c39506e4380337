// Plan/format cache — the search-once-execute-many half of the serving
// layer (ROADMAP: caching / batching / heavy traffic).
//
// The paper's value proposition is that one planner search amortizes over
// many executions of the same kernel. KernelCache makes that amortization
// a process-wide property instead of a per-call-site discipline: it
// memoizes the planner's result (Plan) together with the compiled loop
// nest (FusedExecutor) under a canonical kernel signature — expression
// structure, index extents, planner options, and an exact sparsity
// fingerprint — so any consumer (sessions, the decomposition drivers, the
// simulated distributed runtime, the autotuner) that binds a structurally
// identical problem skips the path enumeration and order DP entirely.
//
// Fleet-grade admission policy: compiled executors and their per-execution
// buffer working sets are the heavy part of an entry, so the cache budgets
// bytes (Config::max_bytes) in addition to entry count, with TTL expiry as
// a second knob for long-lived servers. Plans persist: save_dir writes
// every resident plan as a versioned, checksummed artifact (core/plan_io)
// and load_dir re-admits them through the static plan verifier plus the
// sparsity-fingerprint consistency check, so a restarted process serves
// every warmed kernel with zero planner searches — and a stale or
// corrupted artifact can never reach an executor.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
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
  /// Dimension of every kernel index, in index-id order.
  std::vector<std::int64_t> extents;
  /// Exact sparsity-structure fingerprint (SparsityStats::fingerprint());
  /// 0 for modeled stats — such signatures still cache, keyed on the
  /// modeled prefix counts being absent, but never match an exact one.
  std::uint64_t sparsity_fingerprint = 0;
  /// Hash of the PlannerOptions fields that affect the chosen plan
  /// (search_threads is excluded: the parallel search is plan-identical).
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

/// Thread-safe byte-budgeted LRU cache of planned kernels.
///
/// Entries are immutable once published and handed out as shared
/// pointers, so a hit costs one mutex-guarded map probe; eviction can
/// never invalidate an entry a caller still executes. The compiled
/// FusedExecutor's program is immutable during execution (each execute()
/// builds its own runtime state), so concurrent executions of one cached
/// entry are safe — that is what lets many serving sessions share it.
class KernelCache {
 public:
  /// Admission/eviction policy. Entry count and resident bytes are both
  /// budgets (eviction triggers on whichever is exceeded); TTL is absolute
  /// from insertion. A zero capacity or zero byte budget makes the cache a
  /// pass-through: get_or_plan still plans, verifies and returns working
  /// entries (and still deduplicates concurrent planning), but nothing is
  /// ever inserted — there is no insert-then-immediately-evict churn.
  struct Config {
    /// Maximum resident entries; 0 = pass-through.
    std::size_t capacity = 128;
    /// Maximum summed Entry::bytes resident; 0 = pass-through, the default
    /// (SIZE_MAX) is unbounded.
    std::size_t max_bytes = std::numeric_limits<std::size_t>::max();
    /// Entries older than this (since insertion) are expired on the next
    /// probe or insertion sweep; zero disables expiry.
    std::chrono::milliseconds ttl{0};
  };

  /// One memoized planning result.
  struct Entry {
    KernelSignature signature;
    Kernel kernel;  ///< dims bound; the shape the executor validates against
    Plan plan;
    /// Compiled nest; safe for concurrent execute() calls.
    std::shared_ptr<FusedExecutor> exec;
    /// Estimated resident size: plan tree + loop order + path + signature
    /// structures, the executor's program footprint, and its
    /// per-execution buffer working set. The byte budget sums these.
    std::size_t bytes = 0;
    /// Insertion time (steady clock) driving TTL expiry; meaningless for
    /// pass-through entries that were never resident.
    std::chrono::steady_clock::time_point inserted{};
  };

  /// Hit/miss/eviction counters for observability (bench_serve, the
  /// serving example, and capacity/byte-budget tuning). `planned` counts
  /// actual planner searches; with single-flight deduplication it can be
  /// far below `misses` under concurrent load (the difference shows up in
  /// `coalesced`).
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< capacity- or byte-budget evictions
    std::uint64_t expired = 0;    ///< TTL expirations
    std::uint64_t inserts = 0;
    /// Planner searches actually executed (misses that were not coalesced).
    std::uint64_t planned = 0;
    /// Misses served by waiting on another thread's in-flight search for
    /// the same signature instead of running a duplicate search.
    std::uint64_t coalesced = 0;
    std::size_t entries = 0;
    /// Summed Entry::bytes of the resident entries.
    std::size_t bytes_resident = 0;
  };

  /// Legacy count-only constructor: `capacity` bounds the number of
  /// resident entries, bytes unbounded. Capacity 0 = pass-through.
  explicit KernelCache(std::size_t capacity = 128);
  /// Fleet configuration: entry count, byte budget, TTL.
  explicit KernelCache(const Config& config);
  ~KernelCache();

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Probe without planning; null on miss. Counts a hit or a miss; an
  /// entry past its TTL is expired (counted, erased) and reported a miss.
  std::shared_ptr<const Entry> lookup(const KernelSignature& sig);

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

  /// Publish an externally produced plan (e.g. an autotuned winner) under
  /// `sig`, compiling its executor; replaces any resident entry with the
  /// same signature and returns the published entry. The structural rules
  /// of the static plan verifier gate admission (the planner options and
  /// stats behind `sig` are not recoverable from the hash, so cost
  /// consistency stays a planning-time check); throws spttn::Error on a
  /// plan that fails them.
  std::shared_ptr<const Entry> put(KernelSignature sig, const Kernel& kernel,
                                   Plan plan);

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
  /// derived from the signature hash). Concurrent cache use is safe; the
  /// sweep snapshots the resident set. Throws spttn::Error only when `dir`
  /// cannot be created; per-file failures land in the report.
  DirReport save_dir(const std::string& dir) const;

  /// Re-admit previously saved artifacts: every `*.plan` file in `dir` is
  /// deserialized, its kernel rebuilt, and the plan pushed through the
  /// full admission gate — the static plan verifier's structural rules,
  /// the executor locality cross-check, and the sparsity-fingerprint
  /// consistency check (the artifact's signature fingerprint must equal
  /// the plan's recorded fingerprint) — before it becomes resident. A
  /// corrupted, truncated, version-mismatched or wrong-fingerprint
  /// artifact is rejected with a structured error; it can never execute.
  /// Loaded entries land with fresh TTL and count as inserts, not
  /// planner searches — after a warm load, get_or_plan over the same
  /// problems is pure hits (Counters::planned stays 0). On a pass-through
  /// cache the sweep rejects everything (nothing can become resident).
  DirReport load_dir(const std::string& dir);

  Counters counters() const;
  std::size_t capacity() const;
  const Config& config() const;
  void clear();

  /// Process-wide cache shared by the convenience overloads
  /// (spttn::plan_kernel/run_plan with a cache), the decomposition
  /// drivers, and DistSpttn.
  static KernelCache& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Estimated resident bytes of one cache entry: signature + kernel + plan
/// (path, order, tree, buffers) structure sizes plus the compiled
/// executor's program metadata and per-execution buffer working set.
/// When `exec` is provided, its actual program footprint (the lowered
/// program plus its buffer and region metadata,
/// FusedExecutor::program_bytes) replaces the per-action metadata
/// heuristic, so max_bytes budgeting charges what the executor really
/// holds. Exposed for tests and the spttn_cache inspect CLI.
std::size_t estimate_entry_bytes(const KernelSignature& sig,
                                 const Kernel& kernel, const Plan& plan,
                                 const FusedExecutor* exec = nullptr);

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
