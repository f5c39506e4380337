// Plan persistence — serialize a planned kernel to a versioned, checksummed
// text artifact and reconstruct it in another process.
//
// A Plan is the expensive half of serving: the path search plus order DP
// that produced it is NP-hard in general (contraction ordering), so a
// restarted process that can reload winning plans skips the search
// entirely — the CoNST direction of caching generated kernels per
// (expression, format) signature, applied to our plan artifacts.
//
// The format is deliberately hostile to silent corruption:
//   - a version header (`spttn-plan v1`) so future layouts never
//     misparse as the current one,
//   - every count bounds-checked before allocation and every id range
//     checked before use, so a truncated or bit-flipped file yields a
//     structured spttn::Error, never UB,
//   - doubles stored as hex bit patterns (exact round-trip; the verifier's
//     cost-consistency checks see the planner's own values),
//   - a trailing checksum over the payload.
//
// Deserialization performs NO semantic validation beyond memory safety:
// the loop forest is rebuilt through LoopTree::assemble, and the caller
// (KernelCache::load_dir) must re-run PlanVerifier before the plan is
// allowed anywhere near an executor. This file's contract is only "what
// you get back is bit-for-bit what was saved, or an error".
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/planner.hpp"

namespace spttn {

/// Serialize `plan` (with the kernel it was planned for) to the versioned
/// text format. `meta` carries caller key/value pairs (e.g. the kernel
/// cache's planner-options hash) inside the checksummed payload; keys and
/// values must be single whitespace-free tokens.
std::string serialize_plan(
    const Kernel& kernel, const Plan& plan,
    const std::vector<std::pair<std::string, std::string>>& meta = {});

/// A deserialized plan artifact: the rebuilt kernel (dims bound), the plan,
/// and the caller meta entries in file order.
struct LoadedPlan {
  Kernel kernel;
  Plan plan;
  std::vector<std::pair<std::string, std::string>> meta;

  /// Value for `key`, or empty when absent.
  std::string meta_value(const std::string& key) const;
};

/// Parse a serialized plan. Throws spttn::Error with a line-located message
/// on any defect: wrong/missing version header, truncated input, malformed
/// fields, out-of-range ids or counts, or checksum mismatch. The returned
/// plan is structurally unvalidated (see file comment) — run PlanVerifier
/// before executing it.
LoadedPlan deserialize_plan(const std::string& text);

}  // namespace spttn
