#include "exec/executor.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "exec/compiled_program.hpp"
#include "exec/kernels.hpp"
#include "exec/lower.hpp"
#include "exec/lowered_program.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spttn {

// The compiled-program IR lives in exec/compiled_program.hpp; it is the
// input to the lowerer and to the parallel-safety analysis below.
using cprog::Base;
using cprog::CAccess;
using cprog::CActionRef;
using cprog::CLoop;
using cprog::CTerm;

struct FusedExecutor::Impl {
  Kernel kernel;  // copy: plans outlive callers' kernels
  ContractionPath path;
  LoopTree tree;

  std::vector<CLoop> loops;
  std::vector<CTerm> terms;
  std::vector<CActionRef> top;
  std::vector<std::int64_t> buffer_len;  // element counts per producing term
  int offloaded_terms = 0;
  int collapsed_loops = 0;

  /// The program every execution runs (lower.cpp): low.loops[i] lowers
  /// loops[i] and low.top[t] lowers top[t].
  lowered::LoweredProgram low;

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
    /// The sole second-level loop (loops[] id) when the root body is
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
  std::vector<TopMeta> top_meta;  // aligned with `top`
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

  cprog::CompiledView view() const {
    return {loops, terms, top, buffer_len, kernel.sparse_ref().order()};
  }

  void compile(const LoopOrder& order);
  void analyze_parallel();
  CAccess make_access(const PathOperand& op,
                      const std::vector<int>& inner_chain);
  CAccess make_out_access(int term_id, const std::vector<int>& inner_chain);
  std::vector<std::int64_t> strides_for(
      const std::vector<int>& idx_order,
      const std::vector<std::int64_t>& dims) const;
  void split_access(const std::vector<int>& ids,
                    const std::vector<std::int64_t>& strides,
                    const std::vector<int>& inner_chain, CAccess* access);

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
  impl_->compile(order);
  impl_->analyze_parallel();
  impl_->low = lower_program(impl_->view());
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
  std::size_t b = 0;
  b += im.loops.capacity() * sizeof(CLoop);
  for (const CLoop& l : im.loops) {
    b += l.body.capacity() * sizeof(CActionRef);
  }
  b += im.terms.capacity() * sizeof(CTerm);
  for (const CTerm& t : im.terms) {
    for (const CAccess* a : {&t.lhs, &t.rhs, &t.out}) {
      b += a->outer.capacity() * sizeof(std::pair<int, std::int64_t>);
      b += a->inner.capacity() * sizeof(std::int64_t);
    }
    b += t.extent.capacity() * sizeof(std::int64_t);
  }
  b += im.top.capacity() * sizeof(CActionRef);
  b += im.buffer_len.capacity() * sizeof(std::int64_t);
  b += im.top_meta.capacity() * sizeof(Impl::TopMeta);
  b += im.buffer_shared.capacity() * sizeof(char);
  b += im.low.bytes();
  return b;
}

std::vector<FusedExecutor::ParallelRegionInfo>
FusedExecutor::parallel_regions() const {
  std::vector<ParallelRegionInfo> out;
  const Impl& im = *impl_;
  for (std::size_t t = 0; t < im.top.size(); ++t) {
    if (im.top[t].kind != CActionRef::Kind::kLoop) continue;
    const CLoop& root = im.loops[static_cast<std::size_t>(im.top[t].id)];
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

std::vector<std::int64_t> FusedExecutor::Impl::strides_for(
    const std::vector<int>& idx_order,
    const std::vector<std::int64_t>& dims) const {
  std::vector<std::int64_t> strides(idx_order.size());
  std::int64_t s = 1;
  for (std::size_t m = idx_order.size(); m-- > 0;) {
    strides[m] = s;
    s = checked_mul(s, dims[m]);
  }
  return strides;
}

void FusedExecutor::Impl::split_access(
    const std::vector<int>& ids, const std::vector<std::int64_t>& strides,
    const std::vector<int>& inner_chain, CAccess* access) {
  access->inner.assign(inner_chain.size(), 0);
  for (std::size_t m = 0; m < ids.size(); ++m) {
    const auto it =
        std::find(inner_chain.begin(), inner_chain.end(), ids[m]);
    if (it != inner_chain.end()) {
      access->inner[static_cast<std::size_t>(it - inner_chain.begin())] =
          strides[m];
    } else {
      access->outer.emplace_back(ids[m], strides[m]);
    }
  }
}

CAccess FusedExecutor::Impl::make_access(const PathOperand& op,
                                         const std::vector<int>& inner_chain) {
  CAccess a;
  if (op.kind == PathOperand::Kind::kInput) {
    if (op.id == kernel.sparse_input()) {
      a.base = Base::kSparseVal;
      a.inner.assign(inner_chain.size(), 0);
      return a;
    }
    a.base = Base::kDense;
    a.id = op.id;
    const auto& ref = kernel.input(op.id);
    std::vector<std::int64_t> dims(ref.idx.size());
    for (std::size_t m = 0; m < ref.idx.size(); ++m) {
      dims[m] = kernel.index_dim(ref.idx[m]);
    }
    split_access(ref.idx, strides_for(ref.idx, dims), inner_chain, &a);
    return a;
  }
  // Intermediate buffer produced by an earlier term.
  a.base = Base::kBuffer;
  a.id = op.id;
  const BufferSpec& spec = tree.buffers()[static_cast<std::size_t>(op.id)];
  split_access(spec.indices, strides_for(spec.indices, spec.dims),
               inner_chain, &a);
  return a;
}

CAccess FusedExecutor::Impl::make_out_access(
    int term_id, const std::vector<int>& inner_chain) {
  CAccess a;
  if (term_id + 1 < path.num_terms()) {
    a.base = Base::kBuffer;
    a.id = term_id;
    const BufferSpec& spec =
        tree.buffers()[static_cast<std::size_t>(term_id)];
    split_access(spec.indices, strides_for(spec.indices, spec.dims),
                 inner_chain, &a);
    return a;
  }
  if (kernel.output_is_sparse()) {
    a.base = Base::kOutSparse;
    a.inner.assign(inner_chain.size(), 0);
    return a;
  }
  a.base = Base::kOutDense;
  const auto& ref = kernel.output();
  std::vector<std::int64_t> dims(ref.idx.size());
  for (std::size_t m = 0; m < ref.idx.size(); ++m) {
    dims[m] = kernel.index_dim(ref.idx[m]);
  }
  split_access(ref.idx, strides_for(ref.idx, dims), inner_chain, &a);
  return a;
}

void FusedExecutor::Impl::compile(const LoopOrder& order) {
  (void)order;
  // Record buffer sizes (storage itself lives in each worker state).
  buffer_len.assign(static_cast<std::size_t>(path.num_terms()), 0);
  for (const BufferSpec& spec : tree.buffers()) {
    if (spec.producer < 0) continue;
    buffer_len[static_cast<std::size_t>(spec.producer)] = spec.size;
  }

  // Try to collapse a node's entire subtree into a dense single-term chain:
  // returns the chain of loop indices when the subtree is a pure chain of
  // dense loops ending at exactly one term (no resets inside).
  const auto try_collapse =
      [&](int node_id, std::vector<int>* chain) -> int /*term or -1*/ {
    int cur = node_id;
    while (true) {
      const LoopTree::Node& n =
          tree.nodes()[static_cast<std::size_t>(cur)];
      if (n.sparse || n.body.size() != 1) return -1;
      chain->push_back(n.index);
      const LoopTree::Action& a = n.body.front();
      if (a.kind == LoopTree::Action::Kind::kTerm) return a.id;
      if (a.kind != LoopTree::Action::Kind::kLoop) return -1;
      cur = a.id;
    }
  };

  const auto make_term = [&](int term_id, const std::vector<int>& chain) {
    CTerm t;
    t.term_id = term_id;
    t.extent.reserve(chain.size());
    for (int id : chain) {
      t.extent.push_back(kernel.index_dim(id));
    }
    const PathTerm& term = path.term(term_id);
    t.lhs = make_access(term.lhs, chain);
    t.rhs = make_access(term.rhs, chain);
    t.out = make_out_access(term_id, chain);
    if (!chain.empty()) {
      ++offloaded_terms;
      collapsed_loops += static_cast<int>(chain.size());
    }
    terms.push_back(std::move(t));
    return static_cast<int>(terms.size()) - 1;
  };

  const auto compile_body = [&](auto&& self,
                                const std::vector<LoopTree::Action>& body,
                                bool top_level) -> std::vector<CActionRef> {
    std::vector<CActionRef> out;
    for (const auto& a : body) {
      switch (a.kind) {
        case LoopTree::Action::Kind::kTerm:
          out.push_back(
              {CActionRef::Kind::kTerm, make_term(a.id, {})});
          break;
        case LoopTree::Action::Kind::kReset:
          out.push_back({CActionRef::Kind::kReset, a.id});
          break;
        case LoopTree::Action::Kind::kLoop: {
          // Root loops are kept explicit even when their whole subtree is a
          // collapsible dense chain: they are the unit of work partitioning
          // (their bodies still collapse, so sequential execution loses only
          // the outermost strided level).
          std::vector<int> chain;
          const int term_id = (collapse_dense && !top_level)
                                  ? try_collapse(a.id, &chain)
                                  : -1;
          if (term_id >= 0) {
            out.push_back(
                {CActionRef::Kind::kTerm, make_term(term_id, chain)});
            break;
          }
          const LoopTree::Node& n =
              tree.nodes()[static_cast<std::size_t>(a.id)];
          CLoop loop;
          loop.index = n.index;
          loop.sparse = n.sparse;
          loop.csf_level = n.csf_level;
          loop.extent = kernel.index_dim(n.index);
          loop.body = self(self, n.body, false);
          loops.push_back(std::move(loop));
          out.push_back(
              {CActionRef::Kind::kLoop, static_cast<int>(loops.size()) - 1});
          break;
        }
      }
    }
    return out;
  };
  top = compile_body(compile_body, tree.top(), true);
}

void FusedExecutor::Impl::analyze_parallel() {
  const std::size_t nb = buffer_len.size();
  // Where each buffer's producer term, consumer term and reset action sit in
  // the top-level action sequence (-1 = not found, e.g. unused slots).
  std::vector<int> producer_top(nb, -1);
  std::vector<int> consumer_top(nb, -1);
  std::vector<int> reset_top(nb, -1);
  top_meta.assign(top.size(), {});

  const auto walk = [&](auto&& self, const CActionRef& a, int t) -> void {
    TopMeta& meta = top_meta[static_cast<std::size_t>(t)];
    switch (a.kind) {
      case CActionRef::Kind::kReset:
        reset_top[static_cast<std::size_t>(a.id)] = t;
        break;
      case CActionRef::Kind::kTerm: {
        const CTerm& ct = terms[static_cast<std::size_t>(a.id)];
        if (ct.out.base == Base::kBuffer) {
          producer_top[static_cast<std::size_t>(ct.out.id)] = t;
        }
        if (ct.out.base == Base::kOutDense) {
          meta.writes_out_dense = true;
          if (top[static_cast<std::size_t>(t)].kind ==
              CActionRef::Kind::kLoop) {
            const CLoop& root = loops[static_cast<std::size_t>(
                top[static_cast<std::size_t>(t)].id)];
            const bool rooted = std::any_of(
                ct.out.outer.begin(), ct.out.outer.end(),
                [&](const auto& p) { return p.first == root.index; });
            if (!rooted) meta.out_dense_rooted = false;
          }
        }
        if (ct.out.base == Base::kOutSparse) meta.writes_out_sparse = true;
        for (const CAccess* side : {&ct.lhs, &ct.rhs}) {
          if (side->base == Base::kBuffer) {
            consumer_top[static_cast<std::size_t>(side->id)] = t;
          }
        }
        break;
      }
      case CActionRef::Kind::kLoop:
        for (const CActionRef& child :
             loops[static_cast<std::size_t>(a.id)].body) {
          self(self, child, t);
        }
        break;
    }
  };
  for (std::size_t t = 0; t < top.size(); ++t) {
    walk(walk, top[t], static_cast<int>(t));
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
                       top[static_cast<std::size_t>(t)].kind ==
                           CActionRef::Kind::kLoop &&
                       consumer_top[b] == t && reset_top[b] == t;
    buffer_shared[b] = local ? 0 : 1;
  }

  // A root loop partitions safely when (a) a sparse root starts at CSF
  // level 0 and (b) every shared buffer it writes is strided by the root
  // index, so partitions touch disjoint slices. Shared buffers it only
  // reads were fully produced by an earlier top-level action (barrier).
  num_root_regions = 0;
  for (std::size_t t = 0; t < top.size(); ++t) {
    if (top[t].kind != CActionRef::Kind::kLoop) continue;
    ++num_root_regions;
    const CLoop& root = loops[static_cast<std::size_t>(top[t].id)];
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
    // tasks sharing a root index would violate).
    int inner_id = -1;
    if (root.body.size() == 1 &&
        root.body.front().kind == CActionRef::Kind::kLoop) {
      inner_id = root.body.front().id;
    }
    top_meta[t].inner_loop = inner_id;
    bool nest = safe && inner_id >= 0;
    if (nest) {
      const CLoop& inner = loops[static_cast<std::size_t>(inner_id)];
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
      // Dense-output stride check against the inner index: collect every
      // term under this root and require the inner index among the output
      // access's outer strides.
      const CLoop& inner = loops[static_cast<std::size_t>(inner_id)];
      const auto check = [&](auto&& self, const CActionRef& a) -> void {
        switch (a.kind) {
          case CActionRef::Kind::kTerm: {
            const CTerm& ct = terms[static_cast<std::size_t>(a.id)];
            if (ct.out.base == Base::kOutDense) {
              const bool strided = std::any_of(
                  ct.out.outer.begin(), ct.out.outer.end(),
                  [&](const auto& p) { return p.first == inner.index; });
              if (!strided) top_meta[t].out_dense_inner_rooted = false;
            }
            break;
          }
          case CActionRef::Kind::kLoop:
            for (const CActionRef& child :
                 loops[static_cast<std::size_t>(a.id)].body) {
              self(self, child);
            }
            break;
          case CActionRef::Kind::kReset:
            break;
        }
      };
      check(check, top[t]);
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
  for (std::size_t t = 0; t < im.top.size(); ++t) {
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

/// Deterministic tiled reduction of per-task output partials: the output
/// is cut into fixed-size tiles processed in parallel, and within a tile
/// the partials fold into dst in task order. The float summation shape
/// depends only on the partition shape (bit-identical run to run), while
/// each lane's working set stays O(tile) and memory is swept once.
void reduce_partials(ThreadPool& pool,
                     std::vector<std::vector<double>>& parts,
                     std::int64_t len, double* dst) {
  if (parts.empty() || len <= 0) return;
  constexpr std::int64_t kTile = 4096;
  const std::int64_t tiles = (len + kTile - 1) / kTile;
  pool.parallel_apply(tiles, [&](std::int64_t tile) {
    const std::int64_t b = tile * kTile;
    const std::int64_t e = std::min(len, b + kTile);
    for (auto& p : parts) {
      xaxpy(e - b, 1.0, p.data() + b, 1, dst + b, 1);
    }
  });
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

  for (std::size_t t = 0; t < top.size(); ++t) {
    const CActionRef& a = top[t];
    const TopMeta& meta = top_meta[t];
    if (a.kind != CActionRef::Kind::kLoop) {
      lowered::run_top(low, ctx, t);  // scalar terms, shared resets
      continue;
    }
    const CLoop& root = loops[static_cast<std::size_t>(a.id)];
    if (!meta.par_safe) {
      ++st.fallback_regions;
      lowered::run_top(low, ctx, t);
      continue;
    }
    const CLoop* inner =
        meta.inner_loop >= 0
            ? &loops[static_cast<std::size_t>(meta.inner_loop)]
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

    if (!dense_direct) {
      reduce_partials(pool, dense_partial, dense_out_len, bind.out_dense);
    }
    if (!sparse_direct) {
      reduce_partials(pool, sparse_partial, sparse_out_len, bind.out_sparse);
    }

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

std::string FusedExecutor::describe(const Kernel& kernel) const {
  std::ostringstream os;
  os << impl_->tree.render(kernel, impl_->path);
  os << "offloaded terms: " << impl_->offloaded_terms << " (collapsed "
     << impl_->collapsed_loops << " dense loops)\n";
  return os.str();
}

}  // namespace spttn
