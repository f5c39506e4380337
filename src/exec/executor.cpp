#include "exec/executor.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "exec/kernels.hpp"
#include "exec/lowered_program.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spttn {

using lowered::Base;
using lowered::InnerKind;
using lowered::LLoop;
using lowered::LOp;
using lowered::LoweredProgram;
using lowered::LTerm;
using lowered::Operand;

namespace {

/// Where one term operand lives, and its row-major strides over the kernel
/// indices `idx` (both empty for the leaf-addressed sparse values and
/// sparse output).
struct Layout {
  Base base = Base::kDense;
  int id = 0;  ///< dense input position or producing-term buffer id
  std::vector<int> idx;
  std::vector<std::int64_t> stride;

  bool leaf() const {
    return base == Base::kSparseVal || base == Base::kOutSparse;
  }
  /// Stride along kernel index `index` (0 when the operand does not use it).
  std::int64_t stride_along(int index) const {
    const auto it = std::find(idx.begin(), idx.end(), index);
    return it == idx.end() ? 0 : stride[static_cast<std::size_t>(
                                     it - idx.begin())];
  }
};

Layout make_layout(Base base, int id, const std::vector<int>& idx,
                   const std::vector<std::int64_t>& dims) {
  Layout a{base, id, idx, std::vector<std::int64_t>(idx.size())};
  std::int64_t s = 1;
  for (std::size_t m = idx.size(); m-- > 0;) {
    a.stride[m] = s;
    s = checked_mul(s, dims[m]);
  }
  return a;
}

/// The one compile pass: walks the LoopTree once and emits the lowered
/// program. Trailing dense loops exclusive to one term collapse into its
/// strided inner kernel (the runtime analogue of the paper's
/// metaprogramming + BLAS hooks), and single-term sparse loops fuse into
/// chains.
struct Compiler {
  const Kernel& kernel;
  const ContractionPath& path;
  const LoopTree& tree;
  const std::vector<std::int64_t>& buffer_len;
  bool collapse_dense;
  LoweredProgram out;
  int offloaded_terms = 0;
  int collapsed_loops = 0;

  Layout tensor_layout(Base base, int id, const TensorRef& ref) const {
    std::vector<std::int64_t> dims(ref.idx.size());
    for (std::size_t m = 0; m < ref.idx.size(); ++m) {
      dims[m] = kernel.index_dim(ref.idx[m]);
    }
    return make_layout(base, id, ref.idx, dims);
  }

  Layout buffer_layout(int id) const {
    const BufferSpec& spec = tree.buffers()[static_cast<std::size_t>(id)];
    return make_layout(Base::kBuffer, id, spec.indices, spec.dims);
  }

  /// Layouts of term `term_id`'s lhs, rhs and output.
  std::array<Layout, 3> layouts(int term_id) const {
    const PathTerm& term = path.term(term_id);
    const auto input = [&](const PathOperand& op) {
      if (op.kind != PathOperand::Kind::kInput) return buffer_layout(op.id);
      if (op.id == kernel.sparse_input()) {
        return Layout{Base::kSparseVal, 0, {}, {}};
      }
      return tensor_layout(Base::kDense, op.id, kernel.input(op.id));
    };
    Layout res;
    if (term_id + 1 < path.num_terms()) {
      res = buffer_layout(term_id);
    } else if (kernel.output_is_sparse()) {
      res.base = Base::kOutSparse;
    } else {
      res = tensor_layout(Base::kOutDense, 0, kernel.output());
    }
    return {input(term.lhs), input(term.rhs), std::move(res)};
  }

  /// Intern a base pointer source. Slots are few (inputs + buffers +
  /// outputs), so a linear scan beats hashing.
  std::int32_t slot_for(Base base, int id) {
    for (std::size_t s = 0; s < out.slots.size(); ++s) {
      if (out.slots[s].base == base && out.slots[s].id == id) {
        return static_cast<std::int32_t>(s);
      }
    }
    out.slots.push_back({base, id});
    return static_cast<std::int32_t>(out.slots.size()) - 1;
  }

  /// Intern the operand's base and store its outer dependencies (inline,
  /// then spilled to the dep pool): every index except the collapsed
  /// `inner` ones and `chain_index` (the enclosing chain loop's index,
  /// which the chain multiplier carries instead).
  Operand operand(const Layout& a, const std::vector<int>& inner,
                  int chain_index) {
    Operand o;
    o.slot = slot_for(a.base, a.id);
    o.leaf = a.leaf() && chain_index < 0;
    o.spill_begin = static_cast<std::int32_t>(out.deps.size());
    for (std::size_t m = 0; m < a.idx.size(); ++m) {
      const int idx = a.idx[m];
      if (idx == chain_index ||
          std::find(inner.begin(), inner.end(), idx) != inner.end()) {
        continue;
      }
      if (o.ndeps < lowered::kInlineDeps) {
        o.inl[static_cast<std::size_t>(o.ndeps)] = {idx, a.stride[m]};
      } else {
        out.deps.push_back({idx, a.stride[m]});
      }
      ++o.ndeps;
    }
    return o;
  }

  /// Emit one term with the dense loops `inner` (outermost first) collapsed
  /// into its kernel, and return its id. Kernel selection: out stride 0 =>
  /// dot, lhs 0 => axpy(alpha = *lhs), rhs 0 => axpy(alpha = *rhs), else
  /// hadamard, with the unit-stride instantiation chosen by the same
  /// conditions kernels.cpp fast-paths on.
  std::int32_t emit_term(const std::array<Layout, 3>& lay,
                         const std::vector<int>& inner, int chain_index) {
    const auto& [lhs, rhs, res] = lay;
    LTerm t;
    t.lhs = operand(lhs, inner, chain_index);
    t.rhs = operand(rhs, inner, chain_index);
    t.out = operand(res, inner, chain_index);
    if (!inner.empty()) {
      ++offloaded_terms;
      collapsed_loops += static_cast<int>(inner.size());
      const int last = inner.back();
      t.n = kernel.index_dim(last);
      t.ls = lhs.stride_along(last);
      t.rs = rhs.stride_along(last);
      t.os = res.stride_along(last);
      if (t.os == 0) {
        t.inner =
            t.ls == 1 && t.rs == 1 ? InnerKind::kDotU : InnerKind::kDotG;
      } else if (t.ls == 0) {
        t.inner =
            t.rs == 1 && t.os == 1 ? InnerKind::kAxpyLU : InnerKind::kAxpyLG;
      } else if (t.rs == 0) {
        t.inner =
            t.ls == 1 && t.os == 1 ? InnerKind::kAxpyRU : InnerKind::kAxpyRG;
      } else {
        t.inner = t.ls == 1 && t.rs == 1 && t.os == 1 ? InnerKind::kHadU
                                                      : InnerKind::kHadG;
      }
      t.level_begin = static_cast<std::int32_t>(out.levels.size());
      t.outer_depth = static_cast<std::int32_t>(inner.size()) - 1;
      for (std::size_t l = 0; l + 1 < inner.size(); ++l) {
        out.levels.push_back(
            {kernel.index_dim(inner[l]), lhs.stride_along(inner[l]),
             rhs.stride_along(inner[l]), res.stride_along(inner[l])});
      }
    }
    out.terms.push_back(t);
    return static_cast<std::int32_t>(out.terms.size()) - 1;
  }

  /// The term action `a` compiles to, or -1 when it stays a loop (or is a
  /// reset). A loop compiles to a term when its whole subtree is a chain of
  /// dense loops ending at exactly one term (no resets inside); the chain's
  /// indices are appended to `inner`, outermost first. Root loops are kept
  /// explicit even then: they are the unit of work partitioning (their
  /// bodies still collapse, so sequential execution loses only the
  /// outermost strided level).
  int term_of(const LoopTree::Action& a, bool top_level,
              std::vector<int>* inner) const {
    if (a.kind == LoopTree::Action::Kind::kTerm) return a.id;
    if (a.kind != LoopTree::Action::Kind::kLoop || !collapse_dense ||
        top_level) {
      return -1;
    }
    int cur = a.id;
    while (true) {
      const LoopTree::Node& n = tree.nodes()[static_cast<std::size_t>(cur)];
      if (n.sparse || n.body.size() != 1) return -1;
      inner->push_back(n.index);
      const LoopTree::Action& b = n.body.front();
      if (b.kind == LoopTree::Action::Kind::kTerm) return b.id;
      if (b.kind != LoopTree::Action::Kind::kLoop) return -1;
      cur = b.id;
    }
  }

  /// A sparse loop whose body is one term fuses into a chain when every
  /// operand depends on the loop index through at most one (index, stride)
  /// pair (a repeated index is a diagonal access) and leaf-addressed
  /// operands sit under the CSF leaf level itself (elsewhere the leaf node
  /// is not a function of the loop position).
  bool chainable(const LoopTree::Node& n,
                 const std::array<Layout, 3>& lay) const {
    const bool leaf_loop = n.csf_level == kernel.sparse_ref().order() - 1;
    return std::all_of(lay.begin(), lay.end(), [&](const Layout& a) {
      return (leaf_loop || !a.leaf()) &&
             std::count(a.idx.begin(), a.idx.end(), n.index) <= 1;
    });
  }

  LOp emit_action(const LoopTree::Action& a, bool top_level) {
    if (a.kind == LoopTree::Action::Kind::kReset) {
      out.resets.push_back({slot_for(Base::kBuffer, a.id),
                            buffer_len[static_cast<std::size_t>(a.id)]});
      return {LOp::Kind::kReset,
              static_cast<std::int32_t>(out.resets.size()) - 1};
    }
    std::vector<int> inner;
    const int term_id = term_of(a, top_level, &inner);
    if (term_id >= 0) {
      return {LOp::Kind::kTerm, emit_term(layouts(term_id), inner, -1)};
    }
    return {LOp::Kind::kLoop, emit_loop(a.id)};
  }

  /// Emit the loop of tree node `node_id` and return its id. A body that
  /// compiles to one term fuses with a chainable sparse loop into a chain.
  std::int32_t emit_loop(int node_id) {
    const LoopTree::Node& n = tree.nodes()[static_cast<std::size_t>(node_id)];
    const auto id = static_cast<std::size_t>(out.loops.size());
    LLoop& l = out.loops.emplace_back();
    l.index = n.index;
    l.sparse = n.sparse;
    l.csf_level = n.csf_level;
    l.extent = kernel.index_dim(n.index);
    std::vector<int> inner;
    const int term_id =
        n.body.size() == 1 ? term_of(n.body.front(), false, &inner) : -1;
    if (term_id < 0) {
      // Children append to out.loops (invalidating `l`), so the body is
      // built aside.
      std::vector<LOp> body;
      body.reserve(n.body.size());
      for (const LoopTree::Action& a : n.body) {
        body.push_back(emit_action(a, false));
      }
      out.loops[id].body = std::move(body);
      return static_cast<std::int32_t>(id);
    }
    const std::array<Layout, 3> lay = layouts(term_id);
    if (!n.sparse || !chainable(n, lay)) {
      l.body = {{LOp::Kind::kTerm, emit_term(lay, inner, -1)}};
      return static_cast<std::int32_t>(id);
    }
    l.is_chain = true;
    l.chain.l_idx = lay[0].stride_along(n.index);
    l.chain.r_idx = lay[1].stride_along(n.index);
    l.chain.o_idx = lay[2].stride_along(n.index);
    l.chain.l_leaf = lay[0].leaf() ? 1 : 0;
    l.chain.r_leaf = lay[1].leaf() ? 1 : 0;
    l.chain.o_leaf = lay[2].leaf() ? 1 : 0;
    l.chain.term = emit_term(lay, inner, n.index);
    return static_cast<std::int32_t>(id);
  }
};

/// Whether operand `o`'s dependencies include kernel index `index`.
bool depends_on(const LoweredProgram& p, const Operand& o, int index) {
  const std::int32_t n_inline = std::min(o.ndeps, lowered::kInlineDeps);
  for (std::int32_t d = 0; d < n_inline; ++d) {
    if (o.inl[static_cast<std::size_t>(d)].idx == index) return true;
  }
  for (std::int32_t d = 0; d < o.ndeps - lowered::kInlineDeps; ++d) {
    if (p.deps[static_cast<std::size_t>(o.spill_begin + d)].idx == index) {
      return true;
    }
  }
  return false;
}

/// Call on_term(term, chain_out) for every term and on_reset(reset) for
/// every reset under statement `op`. A chain keeps its loop index's stride
/// in LChain::{l,r,o}_idx, not in the operand deps, so chain_out is the
/// chain loop's index when the chain strides the output (o_idx != 0) and
/// -1 otherwise.
template <class OnTerm, class OnReset>
void walk_statements(const LoweredProgram& p, const LOp& op,
                     OnTerm&& on_term, OnReset&& on_reset) {
  switch (op.kind) {
    case LOp::Kind::kTerm:
      on_term(p.terms[static_cast<std::size_t>(op.id)], -1);
      break;
    case LOp::Kind::kReset:
      on_reset(p.resets[static_cast<std::size_t>(op.id)]);
      break;
    case LOp::Kind::kLoop: {
      const LLoop& l = p.loops[static_cast<std::size_t>(op.id)];
      if (l.is_chain) {
        on_term(p.terms[static_cast<std::size_t>(l.chain.term)],
                l.chain.o_idx != 0 ? l.index : -1);
        break;
      }
      for (const LOp& child : l.body) {
        walk_statements(p, child, on_term, on_reset);
      }
      break;
    }
  }
}

}  // namespace

struct FusedExecutor::Impl {
  Kernel kernel;  // copy: plans outlive callers' kernels
  ContractionPath path;
  LoopTree tree;

  std::vector<std::int64_t> buffer_len;  // element counts per producing term
  int offloaded_terms = 0;
  int collapsed_loops = 0;

  /// The one program form: compiled from the tree at construction, read by
  /// the parallel-safety analysis and the splitter, run by every execution.
  LoweredProgram low;

  bool collapse_dense = true;

  /// Sparsity fingerprint of the plan this nest was compiled from; 0 when
  /// built from a raw (path, order) pair or a plan with modeled stats.
  std::uint64_t plan_fingerprint = 0;

  // --- Parallel-execution metadata (analyze_parallel, at compile time) ---

  /// Parallelizability of one top-level action.
  struct TopMeta {
    bool par_safe = false;         ///< loop may be partitioned across workers
    bool writes_out_dense = false; ///< some term under it writes the output
    bool writes_out_sparse = false;
    /// Every dense-output write under the loop is strided by the loop's own
    /// index, so partitions write disjoint slices and no reduction is
    /// needed (the common case: MTTKRP rows, TTMc slices).
    bool out_dense_rooted = true;
    /// The sole second-level loop (low.loops id) when the root body is
    /// exactly one loop; -1 otherwise. Unit of the nested split.
    int inner_loop = -1;
    /// The root may be split across the second loop level: par_safe, a
    /// single-loop body at a consistent CSF level, and no shared-buffer
    /// writes under the root (two tasks sharing a root index would collide
    /// on the root-strided slice).
    bool nest_safe = false;
    /// Every dense-output write under the loop is also strided by the
    /// inner loop's index; together with out_dense_rooted this makes
    /// nested tasks' output slices disjoint (direct writes, no partials).
    bool out_dense_inner_rooted = true;
  };
  std::vector<TopMeta> top_meta;  // aligned with low.top
  int num_root_regions = 0;       ///< top-level kLoop actions
  /// Buffers that carry values across top-level actions (or are written in
  /// a non-parallelizable position); they live in storage shared by all
  /// workers. Non-shared buffers are private per worker state.
  std::vector<char> buffer_shared;

  /// Tensors one execution binds (validated by execute()).
  struct Binding {
    const CsfTensor* csf = nullptr;
    std::vector<const double*> dense;  // per kernel input
    double* out_dense = nullptr;
    double* out_sparse = nullptr;
  };

  /// Build one worker's state and bind every slot of the lowered program
  /// once. Buffers marked shared alias `shared` storage (one allocation
  /// all workers see, writes disjoint by construction); the rest are
  /// private zero-initialized copies. Pass null to own everything
  /// (sequential execution). The program above is immutable during
  /// execution, so parallel workers share it and own one state each.
  lowered::ExecCtx make_ctx(const Binding& b,
                            std::vector<std::vector<double>>* shared) const {
    lowered::ExecCtx ctx;
    ctx.csf = b.csf;
    ctx.idx_val.assign(static_cast<std::size_t>(kernel.num_indices()), 0);
    ctx.csf_node.assign(static_cast<std::size_t>(kernel.sparse_ref().order()),
                        0);
    ctx.owned.resize(buffer_len.size());
    ctx.table.resize(low.slots.size());
    for (std::size_t s = 0; s < low.slots.size(); ++s) {
      const auto id = static_cast<std::size_t>(low.slots[s].id);
      double* p = nullptr;
      switch (low.slots[s].base) {
        case Base::kDense:
          p = const_cast<double*>(b.dense[id]);
          break;
        case Base::kBuffer:
          if (shared != nullptr && buffer_shared[id]) {
            p = (*shared)[id].data();
          } else {
            ctx.owned[id].assign(static_cast<std::size_t>(buffer_len[id]),
                                 0.0);
            p = ctx.owned[id].data();
          }
          break;
        case Base::kSparseVal:
          p = const_cast<double*>(b.csf->vals().data());
          break;
        case Base::kOutDense:
          p = b.out_dense;
          break;
        case Base::kOutSparse:
          p = b.out_sparse;
          break;
      }
      ctx.table[s] = p;
    }
    return ctx;
  }

  void compile();
  void analyze_parallel();

  void execute_parallel(lowered::ExecCtx& ctx, const Binding& bind,
                        const ExecArgs& args, int want_threads,
                        std::vector<std::vector<double>>& shared_bufs,
                        ExecStats* stats) const;
};

FusedExecutor::FusedExecutor(const Kernel& kernel,
                             const ContractionPath& path,
                             const LoopOrder& order, bool collapse_dense)
    : impl_(std::make_unique<Impl>()) {
  impl_->kernel = kernel;
  impl_->path = path;
  impl_->collapse_dense = collapse_dense;
  impl_->tree = LoopTree::build(kernel, path, order);
  impl_->compile();
  impl_->analyze_parallel();
}

FusedExecutor::FusedExecutor(const Kernel& kernel, const Plan& plan)
    : FusedExecutor(kernel, plan.path, plan.order) {
  impl_->plan_fingerprint = plan.sparsity_fingerprint;
}

FusedExecutor::~FusedExecutor() = default;
FusedExecutor::FusedExecutor(FusedExecutor&&) noexcept = default;
FusedExecutor& FusedExecutor::operator=(FusedExecutor&&) noexcept = default;

const LoopTree& FusedExecutor::tree() const { return impl_->tree; }
int FusedExecutor::offloaded_terms() const { return impl_->offloaded_terms; }
int FusedExecutor::collapsed_loops() const { return impl_->collapsed_loops; }
bool FusedExecutor::collapse_dense() const { return impl_->collapse_dense; }

std::size_t FusedExecutor::program_bytes() const {
  const Impl& im = *impl_;
  return im.low.bytes() + im.buffer_len.capacity() * sizeof(std::int64_t) +
         im.top_meta.capacity() * sizeof(Impl::TopMeta) +
         im.buffer_shared.capacity() * sizeof(char);
}

std::vector<FusedExecutor::ParallelRegionInfo>
FusedExecutor::parallel_regions() const {
  std::vector<ParallelRegionInfo> out;
  const Impl& im = *impl_;
  for (std::size_t t = 0; t < im.low.top.size(); ++t) {
    if (im.low.top[t].kind != LOp::Kind::kLoop) continue;
    const LLoop& root =
        im.low.loops[static_cast<std::size_t>(im.low.top[t].id)];
    const Impl::TopMeta& meta = im.top_meta[t];
    ParallelRegionInfo info;
    info.top_position = static_cast<int>(t);
    info.root_index = root.index;
    info.sparse = root.sparse;
    info.par_safe = meta.par_safe;
    info.nest_safe = meta.nest_safe;
    info.writes_out_dense = meta.writes_out_dense;
    info.writes_out_sparse = meta.writes_out_sparse;
    info.out_dense_rooted = meta.out_dense_rooted;
    info.out_dense_inner_rooted = meta.out_dense_inner_rooted;
    out.push_back(info);
  }
  return out;
}

std::vector<char> FusedExecutor::shared_buffers() const {
  const Impl& im = *impl_;
  std::vector<char> out(im.buffer_shared.size(), 0);
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = (im.buffer_len[b] > 0 && im.buffer_shared[b]) ? 1 : 0;
  }
  return out;
}

void FusedExecutor::Impl::compile() {
  // Record buffer sizes (storage itself lives in each worker state).
  buffer_len.assign(static_cast<std::size_t>(path.num_terms()), 0);
  for (const BufferSpec& spec : tree.buffers()) {
    if (spec.producer < 0) continue;
    buffer_len[static_cast<std::size_t>(spec.producer)] = spec.size;
  }
  Compiler c{kernel, path, tree, buffer_len, collapse_dense, {}};
  c.out.top.reserve(tree.top().size());
  for (const LoopTree::Action& a : tree.top()) {
    c.out.top.push_back(c.emit_action(a, true));
  }
  low = std::move(c.out);
  offloaded_terms = c.offloaded_terms;
  collapsed_loops = c.collapsed_loops;
}

void FusedExecutor::Impl::analyze_parallel() {
  const std::size_t nb = buffer_len.size();
  // Where each buffer's producer term, consumer term and reset action sit in
  // the top-level action sequence (-1 = not found, e.g. unused slots).
  std::vector<int> producer_top(nb, -1);
  std::vector<int> consumer_top(nb, -1);
  std::vector<int> reset_top(nb, -1);
  top_meta.assign(low.top.size(), {});
  const auto source = [&](const Operand& o) -> const lowered::SlotSource& {
    return low.slots[static_cast<std::size_t>(o.slot)];
  };
  // Whether a term's output moves with kernel index `index`: one of its
  // deps, or the stride its chain loop carries (`chain_out`).
  const auto out_strided = [&](const LTerm& term, int chain_out, int index) {
    return chain_out == index || depends_on(low, term.out, index);
  };

  for (std::size_t t = 0; t < low.top.size(); ++t) {
    const LOp& op = low.top[t];
    TopMeta& meta = top_meta[t];
    const int at = static_cast<int>(t);
    const int root_index =
        op.kind == LOp::Kind::kLoop
            ? low.loops[static_cast<std::size_t>(op.id)].index
            : -1;
    walk_statements(
        low, op,
        [&](const LTerm& term, int chain_out) {
          const lowered::SlotSource& res = source(term.out);
          if (res.base == Base::kBuffer) {
            producer_top[static_cast<std::size_t>(res.id)] = at;
          }
          if (res.base == Base::kOutDense) {
            meta.writes_out_dense = true;
            if (root_index >= 0 && !out_strided(term, chain_out, root_index)) {
              meta.out_dense_rooted = false;
            }
          }
          if (res.base == Base::kOutSparse) meta.writes_out_sparse = true;
          for (const Operand* side : {&term.lhs, &term.rhs}) {
            if (source(*side).base == Base::kBuffer) {
              consumer_top[static_cast<std::size_t>(source(*side).id)] = at;
            }
          }
        },
        [&](const lowered::LReset& r) {
          reset_top[static_cast<std::size_t>(
              low.slots[static_cast<std::size_t>(r.slot)].id)] = at;
        });
  }

  // A buffer is worker-private only when its whole lifetime (reset, write,
  // read) sits under one top-level loop; the reset scope encodes whether
  // values carry across root iterations (LoopTree places it at the deepest
  // common ancestor of producer and consumer).
  buffer_shared.assign(nb, 1);
  for (std::size_t b = 0; b < nb; ++b) {
    if (buffer_len[b] == 0) continue;
    const int t = producer_top[b];
    const bool local = t >= 0 &&
                       low.top[static_cast<std::size_t>(t)].kind ==
                           LOp::Kind::kLoop &&
                       consumer_top[b] == t && reset_top[b] == t;
    buffer_shared[b] = local ? 0 : 1;
  }

  // A root loop partitions safely when (a) a sparse root starts at CSF
  // level 0 and (b) every shared buffer it writes is strided by the root
  // index, so partitions touch disjoint slices. Shared buffers it only
  // reads were fully produced by an earlier top-level action (barrier).
  num_root_regions = 0;
  for (std::size_t t = 0; t < low.top.size(); ++t) {
    if (low.top[t].kind != LOp::Kind::kLoop) continue;
    ++num_root_regions;
    const LLoop& root = low.loops[static_cast<std::size_t>(low.top[t].id)];
    bool safe = !root.sparse || root.csf_level == 0;
    for (std::size_t b = 0; b < nb && safe; ++b) {
      if (buffer_len[b] == 0 || !buffer_shared[b]) continue;
      // A reset inside a partitioned loop would zero a shared buffer from
      // every worker; the buffer-locality rule above makes this imply a
      // cross-root carry, which cannot be partitioned.
      if (reset_top[b] == static_cast<int>(t)) {
        safe = false;
        break;
      }
      if (producer_top[b] != static_cast<int>(t)) continue;
      const BufferSpec& spec = tree.buffers()[b];
      const bool rooted =
          std::find(spec.indices.begin(), spec.indices.end(), root.index) !=
          spec.indices.end();
      if (!rooted) safe = false;
    }
    top_meta[t].par_safe = safe;

    // Nested-split eligibility: the root body must be exactly one loop (so
    // no sibling term, reset, or cross-iteration buffer carry sits between
    // root iterations), at the CSF level directly below the root for
    // sparse inners, with no shared-buffer writes under the root at all
    // (root-strided slices are disjoint per root *index*, which nested
    // tasks sharing a root index would violate). A chain root has no body
    // to split.
    int inner_id = -1;
    if (root.body.size() == 1 && root.body.front().kind == LOp::Kind::kLoop) {
      inner_id = root.body.front().id;
    }
    top_meta[t].inner_loop = inner_id;
    bool nest = safe && inner_id >= 0;
    if (nest) {
      const LLoop& inner = low.loops[static_cast<std::size_t>(inner_id)];
      if (inner.sparse) {
        const int want_level = root.sparse ? root.csf_level + 1 : 0;
        nest = inner.csf_level == want_level;
      }
      for (std::size_t b = 0; b < nb && nest; ++b) {
        if (buffer_len[b] == 0 || !buffer_shared[b]) continue;
        if (producer_top[b] == static_cast<int>(t)) nest = false;
      }
    }
    top_meta[t].nest_safe = nest;
    if (nest) {
      // Dense-output stride check against the inner index: every term
      // under this root that writes the output must move with it.
      const int inner_index =
          low.loops[static_cast<std::size_t>(inner_id)].index;
      walk_statements(
          low, low.top[t],
          [&](const LTerm& term, int chain_out) {
            if (source(term.out).base == Base::kOutDense &&
                !out_strided(term, chain_out, inner_index)) {
              top_meta[t].out_dense_inner_rooted = false;
            }
          },
          [](const lowered::LReset&) {});
    }
  }
}

void FusedExecutor::execute(const ExecArgs& args) {
  Impl& im = *impl_;
  const Kernel& k = im.kernel;
  SPTTN_CHECK_MSG(args.sparse != nullptr, "sparse operand not bound");
  const CsfTensor& csf = *args.sparse;
  SPTTN_CHECK_MSG(csf.order() == k.sparse_ref().order(),
                  "CSF order mismatch with kernel sparse operand");
  for (int l = 0; l < csf.order(); ++l) {
    SPTTN_CHECK_MSG(
        csf.level_dims()[static_cast<std::size_t>(l)] ==
            k.index_dim(k.sparse_ref().idx[static_cast<std::size_t>(l)]),
        "CSF level " << l << " dimension mismatch");
    SPTTN_CHECK_MSG(csf.mode_order()[static_cast<std::size_t>(l)] == l,
                    "CSF must be built in the kernel's sparse index order");
  }
  // Stale-stats guard: a plan derived from exact sparsity statistics may
  // only execute against the structure it was planned for. Both sides are
  // stored hashes, so the comparison is O(1); either side being 0 (raw
  // (path, order) construction, modeled stats, default CSF) skips it.
  SPTTN_CHECK_MSG(im.plan_fingerprint == 0 ||
                      csf.structure_fingerprint() == 0 ||
                      im.plan_fingerprint == csf.structure_fingerprint(),
                  "sparsity fingerprint mismatch: the plan was derived from "
                  "a structurally different tensor than the CSF being "
                  "executed (stale cached plan?)");
  SPTTN_CHECK_MSG(static_cast<int>(args.dense.size()) == k.num_inputs(),
                  "expected one dense slot per kernel input");
  const int want_threads = std::max(1, args.num_threads);
  // Shared storage for buffers carrying values across top-level actions;
  // workers alias it (their writes are disjoint by the safety analysis).
  std::vector<std::vector<double>> shared_bufs;
  if (want_threads > 1) {
    shared_bufs.resize(im.buffer_len.size());
    for (std::size_t b = 0; b < im.buffer_len.size(); ++b) {
      if (im.buffer_len[b] > 0 && im.buffer_shared[b]) {
        shared_bufs[b].assign(static_cast<std::size_t>(im.buffer_len[b]),
                              0.0);
      }
    }
  }
  Impl::Binding bind;
  bind.csf = &csf;
  bind.dense.assign(args.dense.size(), nullptr);
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i == k.sparse_input()) continue;
    const DenseTensor* d = args.dense[static_cast<std::size_t>(i)];
    SPTTN_CHECK_MSG(d != nullptr,
                    "dense input '" << k.input(i).name << "' not bound");
    const auto& ref = k.input(i);
    SPTTN_CHECK_MSG(d->order() == ref.order(),
                    "dense input '" << ref.name << "' order mismatch");
    for (int m = 0; m < ref.order(); ++m) {
      SPTTN_CHECK_MSG(
          d->dim(m) == k.index_dim(ref.idx[static_cast<std::size_t>(m)]),
          "dense input '" << ref.name << "' dim mismatch in mode " << m);
    }
    bind.dense[static_cast<std::size_t>(i)] = d->data();
  }

  if (k.output_is_sparse()) {
    SPTTN_CHECK_MSG(static_cast<std::int64_t>(args.out_sparse.size()) ==
                        csf.nnz(),
                    "sparse output must have one value per nonzero");
    bind.out_sparse = args.out_sparse.data();
    if (!args.accumulate) {
      xzero(csf.nnz(), bind.out_sparse, 1);
    }
  } else {
    SPTTN_CHECK_MSG(args.out_dense != nullptr, "dense output not bound");
    const auto& ref = k.output();
    SPTTN_CHECK_MSG(args.out_dense->order() == ref.order(),
                    "output order mismatch");
    for (int m = 0; m < ref.order(); ++m) {
      SPTTN_CHECK_MSG(args.out_dense->dim(m) ==
                          k.index_dim(ref.idx[static_cast<std::size_t>(m)]),
                      "output dim mismatch in mode " << m);
    }
    bind.out_dense = args.out_dense->data();
    if (!args.accumulate) args.out_dense->zero();
  }

  lowered::ExecCtx ctx =
      im.make_ctx(bind, want_threads > 1 ? &shared_bufs : nullptr);
  if (want_threads > 1) {
    im.execute_parallel(ctx, bind, args, want_threads, shared_bufs,
                        args.stats);
    return;
  }
  for (std::size_t t = 0; t < im.low.top.size(); ++t) {
    lowered::run_top(im.low, ctx, t);
  }
  if (args.stats != nullptr) {
    // Report the sequential execution faithfully instead of clobbering the
    // caller's struct with defaults: the resolved thread count and the
    // region census make "ran sequentially" distinguishable from "stats
    // never populated".
    ExecStats st;
    st.populated = true;
    st.threads_requested = want_threads;
    st.threads_used = 1;
    st.total_regions = im.num_root_regions;
    st.lowered_regions = im.num_root_regions;
    *args.stats = st;
  }
}

namespace {

/// One unit of parallel work within a root region: a contiguous range of
/// root positions, optionally narrowed (for a single root position) to a
/// sub-range of the second-level loop. `weight` is the estimated work
/// (subtree nnz for sparse roots, proportional iteration count for dense
/// roots), used for imbalance reporting only.
struct ParTask {
  std::int64_t root_begin = 0;
  std::int64_t root_end = 0;
  std::int64_t inner_begin = -1;  ///< >= 0: nested (root range is one position)
  std::int64_t inner_end = -1;
  std::int64_t weight = 0;
};

/// First-leaf offsets for every node of a CSF level (plus an end sentinel):
/// lb[i] is the first nonzero under node i at `level`, so lb[e] - lb[b]
/// counts the nonzeros below node range [b, e).
std::vector<std::int64_t> leaf_offsets(const CsfTensor& csf, int level) {
  const std::int64_t n = csf.num_nodes(level);
  std::vector<std::int64_t> lb(static_cast<std::size_t>(n) + 1);
  for (std::int64_t i = 0; i <= n; ++i) lb[static_cast<std::size_t>(i)] = i;
  for (int lvl = level; lvl + 1 < csf.order(); ++lvl) {
    const auto ptr = csf.level_ptr(lvl);
    for (auto& b : lb) b = ptr[static_cast<std::size_t>(b)];
  }
  return lb;
}

}  // namespace

/// Parallel execution of the lowered program: top-level actions run
/// in order (each parallel_apply is a barrier), and every safe root loop is
/// partitioned across the process-wide work-stealing pool by one
/// deterministic splitter. Root positions are weighted (subtree nnz for
/// sparse roots, one iteration's work for dense roots) and cut at the
/// weight prefixes c*W/B into at most B chunks. A chunk heavier than 1.25x
/// the per-task target T = ceil(W/B) is re-walked when the region admits a
/// nested split: positions heavier than T break into sub-ranges of the
/// second loop level, lighter ones coalesce into runs of about T. Outputs
/// write directly when the final tasks are disjoint in the partitioned
/// indices, otherwise into per-task partials folded by a tiled
/// deterministic reduction.
void FusedExecutor::Impl::execute_parallel(
    lowered::ExecCtx& ctx, const Binding& bind, const ExecArgs& args,
    int want_threads, std::vector<std::vector<double>>& shared_bufs,
    ExecStats* stats) const {
  ThreadPool& pool = ThreadPool::global();
  ExecStats st;
  st.populated = true;
  st.threads_requested = want_threads;
  st.total_regions = num_root_regions;
  st.lowered_regions = num_root_regions;
  const CsfTensor& csf = *bind.csf;
  const std::int64_t dense_out_len =
      bind.out_dense != nullptr ? args.out_dense->size() : 0;
  const std::int64_t sparse_out_len =
      bind.out_sparse != nullptr ? csf.nnz() : 0;
  /// Root chunks heavier than this multiple of the per-task target are
  /// re-walked with the nested second-level split.
  constexpr double kNestSkewThreshold = 1.25;

  for (std::size_t t = 0; t < low.top.size(); ++t) {
    const LOp& a = low.top[t];
    const TopMeta& meta = top_meta[t];
    if (a.kind != LOp::Kind::kLoop) {
      lowered::run_top(low, ctx, t);  // scalar terms, shared resets
      continue;
    }
    const LLoop& root = low.loops[static_cast<std::size_t>(a.id)];
    if (!meta.par_safe) {
      ++st.fallback_regions;
      lowered::run_top(low, ctx, t);
      continue;
    }
    const LLoop* inner =
        meta.inner_loop >= 0
            ? &low.loops[static_cast<std::size_t>(meta.inner_loop)]
            : nullptr;

    // Work geometry of the root space. Sparse roots weigh positions by
    // subtree nnz; dense roots weigh every position by the (uniform) work
    // of one iteration so that small-extent roots still expose enough
    // total weight for the nested split to aim at. prefix(p) is the
    // weight of root positions [0, p).
    std::vector<std::int64_t> leaf_begin;  // sparse roots only
    std::int64_t extent = 0;
    std::int64_t dense_w_each = 1;
    if (root.sparse) {
      extent = csf.num_nodes(0);
      leaf_begin = leaf_offsets(csf, 0);
    } else {
      extent = root.extent;
      if (inner != nullptr) {
        dense_w_each = inner->sparse ? std::max<std::int64_t>(csf.nnz(), 1)
                                     : std::max<std::int64_t>(inner->extent, 1);
      }
    }
    const auto prefix = [&](std::int64_t p) {
      return root.sparse ? leaf_begin[static_cast<std::size_t>(p)]
                         : p * dense_w_each;
    };
    const std::int64_t total_w = prefix(extent);
    if (extent == 0 || total_w == 0) {
      lowered::run_top(low, ctx, t);
      continue;
    }

    // Task budget B. Every task pays a worker state (private-buffer
    // allocation), and tasks beyond the pool's lanes only help by
    // smoothing weight imbalance the stealing pool can absorb, so
    // disjoint-write regions get a few tasks per lane. Regions whose root
    // chunks already need per-task output partials also pay a full output
    // copy per task and get one task per lane.
    const bool flat_partials =
        (meta.writes_out_dense && !meta.out_dense_rooted) ||
        (meta.writes_out_sparse && !root.sparse);
    const std::int64_t budget = std::min<std::int64_t>(
        std::min(want_threads, flat_partials ? pool.size() : 4 * pool.size()),
        total_w);
    const std::int64_t target = (total_w + budget - 1) / budget;

    std::vector<ParTask> tasks;
    std::vector<std::int64_t> inner_leaf;  // filled by the first inner cut

    // A root position heavier than the target: cut the second loop level
    // into ceil(w / T) weight-balanced sub-ranges (nnz-balanced for sparse
    // inners, even for dense ones).
    const auto split_position = [&](std::int64_t p, std::int64_t w) {
      std::int64_t ib = 0;
      std::int64_t ie = inner->extent;
      if (inner->sparse && root.sparse) {
        const auto ptr = csf.level_ptr(root.csf_level);
        ib = ptr[static_cast<std::size_t>(p)];
        ie = ptr[static_cast<std::size_t>(p + 1)];
      } else if (inner->sparse) {
        ie = csf.num_nodes(inner->csf_level);
      }
      const std::int64_t cap = ie - ib;
      const std::int64_t pieces = std::clamp<std::int64_t>(
          (w + target - 1) / target, 1, std::max<std::int64_t>(cap, 1));
      if (pieces < 2) {
        tasks.push_back({p, p + 1, -1, -1, w});
        return;
      }
      if (inner->sparse && inner_leaf.empty()) {
        inner_leaf = leaf_offsets(csf, inner->csf_level);
      }
      std::int64_t prev = ib;
      for (std::int64_t c = 1; c <= pieces && prev < ie; ++c) {
        std::int64_t end = ie;
        if (c < pieces && inner->sparse) {
          const std::int64_t goal =
              inner_leaf[static_cast<std::size_t>(ib)] +
              (inner_leaf[static_cast<std::size_t>(ie)] -
               inner_leaf[static_cast<std::size_t>(ib)]) *
                  c / pieces;
          end = std::lower_bound(inner_leaf.begin() + ib,
                                 inner_leaf.begin() + ie, goal) -
                inner_leaf.begin();
        } else if (c < pieces) {
          end = ib + cap * c / pieces;
        }
        end = std::clamp(end, prev, ie);
        if (end > prev) {
          const std::int64_t piece_w =
              inner->sparse ? inner_leaf[static_cast<std::size_t>(end)] -
                                  inner_leaf[static_cast<std::size_t>(prev)]
                            : w * (end - prev) / cap;
          tasks.push_back({p, p + 1, prev, end, piece_w});
        }
        prev = end;
      }
    };

    // Re-walk of a heavy chunk [b, e): heavy positions split at the second
    // level, runs of light positions close once they reach the target.
    const auto rewalk = [&](std::int64_t b, std::int64_t e) {
      std::int64_t run_begin = b;
      std::int64_t run_w = 0;
      const auto flush = [&](std::int64_t end) {
        if (run_w > 0) tasks.push_back({run_begin, end, -1, -1, run_w});
        run_begin = end;
        run_w = 0;
      };
      for (std::int64_t p = b; p < e; ++p) {
        const std::int64_t w = prefix(p + 1) - prefix(p);
        if (w > target) {
          flush(p);
          split_position(p, w);
          run_begin = p + 1;
          continue;
        }
        run_w += w;
        if (run_w >= target) flush(p + 1);
      }
      flush(e);
    };

    // Cut the root positions at the weight prefixes c*W/B, each cut on the
    // first position boundary at or past its goal. The shape depends only
    // on the CSF structure and the budget, so the partition (and with it
    // the reduction order) is deterministic.
    std::int64_t begin = 0;
    for (std::int64_t c = 1; c <= budget && begin < extent; ++c) {
      std::int64_t end = extent;
      if (c < budget) {
        const std::int64_t goal = total_w * c / budget;
        end = root.sparse
                  ? std::lower_bound(leaf_begin.begin(), leaf_begin.end(),
                                     goal) -
                        leaf_begin.begin()
                  : (goal + dense_w_each - 1) / dense_w_each;
        end = std::clamp(end, begin, extent);
      }
      if (end == begin) continue;
      const std::int64_t w = prefix(end) - prefix(begin);
      if (meta.nest_safe && static_cast<double>(w) >
                                kNestSkewThreshold *
                                    static_cast<double>(target)) {
        rewalk(begin, end);
      } else {
        tasks.push_back({begin, end, -1, -1, w});
      }
      begin = end;
    }

    const auto n_tasks = static_cast<std::int64_t>(tasks.size());
    if (n_tasks < 2) {
      // Could not be split (single position, or all weight in unsplittable
      // work). Report the skew against an even B-way split so the
      // serialization is observable, then run in place.
      st.partition_imbalance =
          std::max(st.partition_imbalance, static_cast<double>(budget));
      lowered::run_top(low, ctx, t);
      continue;
    }
    const bool has_nested =
        std::any_of(tasks.begin(), tasks.end(),
                    [](const ParTask& task) { return task.inner_begin >= 0; });

    // Output routing. Tasks disjoint in the root index write dense outputs
    // strided by the root directly; nested tasks additionally need the
    // inner stride. Sparse (pattern-aligned) outputs write directly when
    // tasks own disjoint leaf ranges — true for sparse roots, and for
    // nested tasks only when the inner loop is also sparse.
    const bool dense_direct =
        !meta.writes_out_dense ||
        (meta.out_dense_rooted &&
         (!has_nested || meta.out_dense_inner_rooted));
    const bool sparse_direct =
        !meta.writes_out_sparse ||
        (root.sparse && (!has_nested || inner->sparse));
    std::vector<std::vector<double>> dense_partial;
    std::vector<std::vector<double>> sparse_partial;
    if (!dense_direct) {
      dense_partial.assign(static_cast<std::size_t>(n_tasks), {});
    }
    if (!sparse_direct) {
      sparse_partial.assign(static_cast<std::size_t>(n_tasks), {});
    }

    pool.parallel_apply(n_tasks, [&](std::int64_t c) {
      Binding wbind = bind;
      if (!dense_direct) {
        auto& p = dense_partial[static_cast<std::size_t>(c)];
        p.assign(static_cast<std::size_t>(dense_out_len), 0.0);
        wbind.out_dense = p.data();
      }
      if (!sparse_direct) {
        auto& p = sparse_partial[static_cast<std::size_t>(c)];
        p.assign(static_cast<std::size_t>(sparse_out_len), 0.0);
        wbind.out_sparse = p.data();
      }
      lowered::ExecCtx wctx = make_ctx(wbind, &shared_bufs);
      const ParTask& task = tasks[static_cast<std::size_t>(c)];
      if (task.inner_begin < 0) {
        lowered::run_loop(low, wctx, a.id, task.root_begin, task.root_end);
      } else {
        // Nested task: bind the single root position, then run the second
        // loop over the narrowed range (the root body is exactly this
        // loop, by the nest_safe analysis).
        if (root.sparse) {
          const int lvl = root.csf_level;
          wctx.idx_val[static_cast<std::size_t>(root.index)] =
              csf.level_idx(lvl)[static_cast<std::size_t>(task.root_begin)];
          wctx.csf_node[static_cast<std::size_t>(lvl)] = task.root_begin;
        } else {
          wctx.idx_val[static_cast<std::size_t>(root.index)] =
              task.root_begin;
        }
        lowered::run_loop(low, wctx, meta.inner_loop, task.inner_begin,
                          task.inner_end);
      }
    });

    // Fold the partials into the output in task order, 4096-element tiles
    // on the pool: each lane's working set stays O(tile), memory is swept
    // once, and the bits depend only on the partition shape.
    const auto fold = [](const std::vector<std::vector<double>>& partial,
                         std::int64_t len, double* dst) {
      std::vector<const double*> parts;
      parts.reserve(partial.size());
      for (const auto& p : partial) parts.push_back(p.data());
      fold_partials(parts, len, dst, /*tile=*/4096);
    };
    if (!dense_direct) fold(dense_partial, dense_out_len, bind.out_dense);
    if (!sparse_direct) fold(sparse_partial, sparse_out_len, bind.out_sparse);

    ++st.parallel_regions;
    if (has_nested) ++st.nested_regions;
    // A re-walk (heavy positions interrupting light runs) may emit a few
    // more tasks than the budget; the surplus only smooths imbalance, so
    // the reported width honors the caller's threads_used <=
    // threads_requested contract.
    st.threads_used = std::max(
        st.threads_used,
        static_cast<int>(std::min<std::int64_t>(n_tasks, want_threads)));
    std::int64_t max_task_w = 0;
    for (const ParTask& task : tasks) {
      max_task_w = std::max(max_task_w, task.weight);
    }
    const double imbalance = static_cast<double>(max_task_w) *
                             static_cast<double>(n_tasks) /
                             static_cast<double>(total_w);
    st.partition_imbalance = std::max(st.partition_imbalance, imbalance);
  }
  if (stats != nullptr) *stats = st;
}

}  // namespace spttn
