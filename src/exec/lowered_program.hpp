// Lowered program: the one program form FusedExecutor builds and runs (the
// paper's runtime executes the single loop nest the planner chose, Section
// 5, Algorithm 2; CoNST derives one code path from the loop-nest IR the
// same way).
//
// Everything about a term's addressing is fixed by the plan before the
// first nonzero is touched, so FusedExecutor's constructor walks the
// LoopTree once and emits this flat form directly:
//
//  - operands carry an interned base-pointer slot plus their pre-split
//    (index, stride) dependencies, the first kInlineDeps inside the operand
//    and any further ones in the program-wide `deps` pool;
//  - every term's innermost kernel (dot / axpy / hadamard, unit or generic
//    stride) is selected at compile time (InnerKind), and its collapsed
//    outer dense levels are a range of the `levels` pool;
//  - a sparse loop whose body is exactly one term fuses into an LChain: one
//    tight loop over the nonzero range with branchless per-operand
//    addressing `invariant_base + idx[p]*idx_mult + p*leaf_mult`, dispatched
//    through a template instantiation per InnerKind so the kernel switch is
//    hoisted out of the nonzero loop entirely. The chain loop's own index
//    lives in those multipliers, not in the operands' dependencies;
//  - a chain may also carry one scalar producer: a sparse loop whose body is
//    exactly "reset a one-element buffer b; one term writes b; one scalar
//    term reads b" (the TTTP/SDDMM epilogue `b = 0; b += dot; out += T*b`)
//    runs, per nonzero, the producer into a local that starts at +0 and
//    then the reading term, the same operations in the same order as the
//    three statements, so the output bits are those of the generic body.
//
// The executor's parallel-safety analysis reads this same program, and its
// splitter hands root chunks and nested second-level ranges to run_loop by
// loop id. Numerical contract: every kernel accumulates in a fixed order,
// so results are bit-identical run to run at a fixed partition shape, and
// tests/golden/outputs.txt pins the output bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spttn {
class CsfTensor;
}  // namespace spttn

namespace spttn::lowered {

/// Where an operand's data lives.
enum class Base {
  kDense,      ///< a dense input tensor
  kBuffer,     ///< an intermediate buffer
  kSparseVal,  ///< the CSF leaf value of the sparse input
  kOutDense,   ///< the dense kernel output
  kOutSparse,  ///< the pattern-aligned sparse output values
};

/// One pre-resolved outer dependency: add idx_val[idx] * stride.
struct Dep {
  std::int32_t idx = 0;
  std::int64_t stride = 0;
};

/// Outer dependencies an operand stores inline; the rest spill to the
/// program-wide pool. Almost every operand has at most two, and keeping
/// them beside the slot saves a dependent load per operand on the
/// per-nonzero path, which shows on kernels with short fibers (bench_e2e
/// serve-churn).
inline constexpr int kInlineDeps = 2;

/// A term operand: its base pointer interned into the slot table and its
/// outer offset as `ndeps` dependencies, the first kInlineDeps in `inl` and
/// the rest at deps[spill_begin, spill_begin + ndeps - kInlineDeps).
struct Operand {
  std::int32_t slot = 0;
  /// Add the current CSF leaf node position (sparse values / sparse output).
  bool leaf = false;
  std::int32_t ndeps = 0;
  std::int32_t spill_begin = 0;
  std::array<Dep, kInlineDeps> inl{};
};

/// Innermost kernel selected at compile time (out-stride 0 => dot, lhs-stride
/// 0 => axpy with lhs as alpha, rhs-stride 0 => axpy with rhs as alpha,
/// else hadamard). The U variants are the unit-stride instantiations.
enum class InnerKind : std::uint8_t {
  kScalar,  ///< depth 0: *out += *lhs * *rhs
  kDotU,
  kDotG,
  kAxpyLU,
  kAxpyLG,
  kAxpyRU,
  kAxpyRG,
  kHadU,
  kHadG,
};

/// One collapsed dense level above a term's innermost kernel: trip count
/// and the per-iteration advance of each operand.
struct Level {
  std::int64_t ext = 0;
  std::int64_t ls = 0, rs = 0, os = 0;
};

/// A lowered term: three operands, pre-selected innermost kernel over `n`
/// elements with constant strides, and levels[level_begin, level_begin +
/// outer_depth) as the collapsed dense levels above it, outermost first.
struct LTerm {
  Operand lhs, rhs, out;
  InnerKind inner = InnerKind::kScalar;
  std::int64_t n = 0;                   ///< innermost trip count
  std::int64_t ls = 0, rs = 0, os = 0;  ///< innermost strides
  std::int32_t level_begin = 0;
  std::int32_t outer_depth = 0;
};

/// The loop-varying part of a chain operand's address at nonzero p:
/// idx[p] * idx + p * leaf (leaf is 1 for leaf-addressed operands, which a
/// chain only admits at the CSF leaf level).
struct ChainMult {
  std::int64_t idx = 0, leaf = 0;
};

/// Fused sparse loop + single term, optionally fed by one producer; the
/// loop-invariant part of every operand address is resolved once before
/// the nonzero loop.
struct LChain {
  ChainMult l, r, o;
  std::int32_t term = 0;  ///< LTerm holding the invariant operand parts
  /// -1, or the LProducer feeding `term` (which is then kScalar with no
  /// collapsed levels).
  std::int32_t producer = -1;
};

/// A chain's producer: the LTerm writing the one-element buffer that the
/// chain's term reads. Per nonzero it runs into a local starting at +0
/// (the buffer reset), which then stands in for that operand of the term.
struct LProducer {
  ChainMult l, r;           ///< the producer's input multipliers
  std::int32_t term = 0;    ///< LTerm of the producer
  std::int32_t reset = 0;   ///< the buffer's reset, kept for analysis walks
  bool buffer_lhs = false;  ///< the buffer is the chain term's lhs, else rhs
};

/// One statement of a loop body or of the top-level sequence. kLoop, kTerm
/// and kReset ids index `loops`, `terms` and `resets`.
struct LOp {
  enum class Kind : std::uint8_t { kLoop, kTerm, kReset } kind;
  std::int32_t id;
};

/// Pre-resolved buffer reset (memset run).
struct LReset {
  std::int32_t slot = 0;
  std::int64_t len = 0;
};

struct LLoop {
  std::int32_t index = -1;
  bool sparse = false;
  std::int32_t csf_level = -1;
  std::int64_t extent = 0;  ///< dense trip count (unused for CSF loops)
  bool is_chain = false;
  LChain chain{};
  std::vector<LOp> body;  ///< empty when is_chain
};

/// Where a slot's base pointer comes from (bound once per worker state).
struct SlotSource {
  Base base = Base::kDense;
  std::int32_t id = 0;
};

struct LoweredProgram {
  std::vector<LLoop> loops;
  std::vector<LOp> top;  ///< top[t] is the tree's top-level action t
  std::vector<LTerm> terms;
  std::vector<LReset> resets;
  std::vector<Dep> deps;
  std::vector<Level> levels;
  std::vector<SlotSource> slots;
  std::vector<LProducer> producers;
};

/// One worker's execution state: the current value of every kernel index,
/// the current node of every CSF level, the slot table (every slot's base
/// pointer, bound once when the state is built), and storage for the
/// worker's private intermediate buffers.
struct ExecCtx {
  std::vector<std::int64_t> idx_val;
  std::vector<std::int64_t> csf_node;
  std::vector<double*> table;
  std::vector<std::vector<double>> owned;
  const CsfTensor* csf = nullptr;
};

/// Run loop `loop` over [begin, end) — node range for sparse loops, index
/// range for dense ones. The executor's splitter hands root chunks and
/// nested second-level sub-ranges to this entry point.
void run_loop(const LoweredProgram& p, ExecCtx& ctx, std::int32_t loop,
              std::int64_t begin, std::int64_t end);

/// Run top-level statement `t`; a loop runs its full range.
void run_top(const LoweredProgram& p, ExecCtx& ctx, std::size_t t);

}  // namespace spttn::lowered
