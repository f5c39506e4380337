// Compiled-program IR: the executor's structural view of one loop nest.
//
// FusedExecutor::Impl::compile flattens a LoopTree into these structs: loops
// tagged as CSF traversals or dense ranges, terms with pre-split strided
// accesses (outer indices resolved per iteration, trailing collapsed dense
// loops as `inner` strides). Nothing executes this form: the lowerer
// (lower.cpp) consumes a read-only CompiledView of it and emits the flat
// program the executor runs, and the executor's parallel-safety analysis
// (cross-checked by the plan verifier) reads the access strides here.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace spttn::cprog {

/// Where an operand's data lives.
enum class Base {
  kDense,      ///< a dense input tensor
  kBuffer,     ///< an intermediate buffer
  kSparseVal,  ///< the CSF leaf value of the sparse input
  kOutDense,   ///< the dense kernel output
  kOutSparse,  ///< the pattern-aligned sparse output values
};

/// Compiled strided access: offset = sum over outer (idx value * stride),
/// then `inner` strides advance through any collapsed trailing loops.
/// kSparseVal / kOutSparse accesses are addressed by the current CSF leaf
/// node instead (outer is empty, inner all zero).
struct CAccess {
  Base base = Base::kDense;
  int id = 0;  ///< dense input position or producing-term buffer id
  std::vector<std::pair<int, std::int64_t>> outer;
  std::vector<std::int64_t> inner;  ///< aligned with CTerm::extent
};

struct CTerm {
  CAccess lhs, rhs, out;
  std::vector<std::int64_t> extent;  ///< trailing collapsed dense loops
  int term_id = 0;
};

struct CActionRef {
  enum class Kind { kLoop, kTerm, kReset } kind;
  int id;
};

struct CLoop {
  int index = -1;
  bool sparse = false;
  int csf_level = -1;
  std::int64_t extent = 0;  ///< dense trip count (unused for CSF loops)
  std::vector<CActionRef> body;
};

/// Read-only view of one compiled program, handed to the lowerer. All
/// references alias FusedExecutor::Impl storage and stay valid for the
/// executor's lifetime.
struct CompiledView {
  const std::vector<CLoop>& loops;
  const std::vector<CTerm>& terms;
  const std::vector<CActionRef>& top;
  const std::vector<std::int64_t>& buffer_len;
  /// CSF order of the sparse operand; the leaf level is csf_order - 1.
  int csf_order = 0;
};

}  // namespace spttn::cprog
