// Static verification of planned loop nests.
//
// A Plan is the planner's contract with the executor: a loop-tree forest,
// its buffer specs, and the recorded cost. The runtime trusts all of it —
// a corrupt tree turns into out-of-bounds strides and racing writes once
// plans are cached, persisted, or (soon) compiled to specialized code.
// PlanVerifier checks the contract without executing anything, in the
// spirit of CoNST's spec-vs-generated-kernel validation and SparseAuto's
// loop-restructuring legality conditions:
//
//   1. Index-binding soundness — every index a term reads or writes is
//      bound by an enclosing loop, each term's root-to-leaf loop chain is
//      exactly its declared loop order, no index is bound twice on a path,
//      and sparse loops appear at their CSF level in storage-prefix order.
//   2. Buffer def-use and scope — every intermediate has exactly one reset,
//      placed in the body of the deepest common ancestor of producer and
//      consumer, before the producer's branch; the producer's branch runs
//      before the consumer's; and the buffer's index set, dims and size
//      equal a recomputation of Eq. 5 at that scope (the scope the cost
//      model charged the buffer to).
//   3. Parallel-write safety — for every root region the executor would
//      partition (classified exactly as FusedExecutor does, from the
//      plan's own metadata), prove from the recomputed root-stride
//      structure that distinct tasks write disjoint regions of shared
//      buffers and outputs; optionally cross-check the verifier's
//      independently derived region facts against an executor's locality
//      analysis of the lowered program it runs.
//   4. Cost-model consistency — the recorded cost equals a recomputation
//      of the tree-separable cost from (path, order), the FLOP estimate
//      matches path_flops, the buffer-dimension bound holds, and the
//      sparsity fingerprint matches the stats in hand.
//
// Diagnostics are structured (rule id, loop-tree path, severity) so the
// mutation tests can assert the exact rule a defect class trips, and the
// lint tool can print actionable reports. The verifier never throws on
// corrupt input — malformed trees yield diagnostics, not crashes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/planner.hpp"

namespace spttn {

class FusedExecutor;

enum class VerifySeverity { kError, kWarning };

/// One finding. `rule` is a stable kebab-case id (e.g. "index-unbound");
/// `tree_path` locates it as a chain of loop indices from the forest root,
/// e.g. "i > j > X1".
struct VerifyDiagnostic {
  std::string rule;
  VerifySeverity severity = VerifySeverity::kError;
  std::string tree_path;
  std::string message;

  std::string to_string() const;
};

/// Outcome of one verification pass.
struct VerifyReport {
  std::vector<VerifyDiagnostic> diags;

  /// True when no kError diagnostic was emitted (warnings allowed).
  bool ok() const;
  int errors() const;
  int warnings() const;
  /// True when some diagnostic carries `rule`.
  bool has(std::string_view rule) const;
  /// All findings, one per line; "clean" when empty.
  std::string to_string() const;
};

/// Knobs for the expensive/optional passes; the structural rules (1)-(3)
/// always run.
struct VerifyOptions {
  /// Recompute the tree-separable cost via evaluate_cost and compare with
  /// Plan::cost (rule "cost-drift").
  bool check_cost = true;
  /// Recompute the FLOP estimate via path_flops when stats are available
  /// (rule "flops-drift").
  bool check_flops = true;
  /// Relative tolerance for cost/FLOP comparisons (the recomputation uses
  /// the same arithmetic as the planner, so drift beyond rounding noise is
  /// a real inconsistency).
  double rel_tol = 1e-6;
};

/// Static verifier for one kernel. Construction is cheap; verify() may be
/// called for many plans of the same kernel (the lint tool sweeps planner
/// option sets this way).
class PlanVerifier {
 public:
  /// `planner_options` must be the options the plan was produced with
  /// (Plan::buffer_dim_bound overrides the bound, mirroring relaxation).
  /// `stats` enables the FLOP and fingerprint checks; may be null.
  explicit PlanVerifier(const Kernel& kernel,
                        const PlannerOptions& planner_options = {},
                        const SparsityStats* stats = nullptr,
                        const VerifyOptions& options = {});

  /// Run every rule over `plan`.
  VerifyReport verify(const Plan& plan) const;

  /// verify() plus the executor cross-check: the verifier's independently
  /// derived parallel-region facts (computed from the plan's loop tree)
  /// must agree with the executor's locality analysis of the lowered
  /// program it runs (rule "par-analysis-mismatch"). `exec` must be
  /// compiled from `plan`.
  VerifyReport verify(const Plan& plan, const FusedExecutor& exec) const;

 private:
  const Kernel* kernel_;
  PlannerOptions planner_options_;
  const SparsityStats* stats_;
  VerifyOptions options_;
};

/// Convenience: one-shot verification.
VerifyReport verify_plan(const Kernel& kernel, const Plan& plan,
                         const PlannerOptions& planner_options = {},
                         const SparsityStats* stats = nullptr);

/// Verify and throw spttn::Error carrying the full report when any error
/// diagnostic fires. The planner (Debug, or PlannerOptions::verify) and the
/// kernel cache admission gate call this.
void verify_plan_or_throw(const Kernel& kernel, const Plan& plan,
                          const PlannerOptions& planner_options = {},
                          const SparsityStats* stats = nullptr);

/// Admission check for plans made outside this process: the artifacts
/// KernelCache::load_dir deserializes. Runs the option-independent
/// structural rules only: the planner options and stats behind a signature hash are not
/// recoverable, so cost/FLOP consistency and the CSF-order restriction
/// stay planning-time checks. When `exec` is non-null it must be compiled
/// from `plan`; the executor locality cross-check then runs as well.
VerifyReport verify_external_plan(const Kernel& kernel, const Plan& plan,
                                  const FusedExecutor* exec = nullptr);

}  // namespace spttn
