#include "exec/lowered_program.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/csf_tensor.hpp"

namespace spttn::lowered {

namespace {

inline double* opd_addr(const LoweredProgram& p, const Operand& o,
                        const ExecCtx& ctx) {
  double* ptr = ctx.table[static_cast<std::size_t>(o.slot)];
  const std::int64_t* iv = ctx.idx_val.data();
  const std::int32_t n_inline = std::min(o.ndeps, kInlineDeps);
  for (std::int32_t d = 0; d < n_inline; ++d) {
    const Dep& dep = o.inl[static_cast<std::size_t>(d)];
    ptr += iv[dep.idx] * dep.stride;
  }
  const Dep* spill = p.deps.data() + o.spill_begin;
  for (std::int32_t d = 0; d < o.ndeps - kInlineDeps; ++d) {
    ptr += iv[spill[d].idx] * spill[d].stride;
  }
  if (o.leaf) ptr += ctx.csf_node.back();
  return ptr;
}

/// Innermost kernels, one instantiation per InnerKind. Each accumulates in
/// a fixed element order, so the output bits depend only on the plan and
/// the partition shape.
template <InnerKind K>
inline void apply_inner(const LTerm& t, const double* l, const double* r,
                        double* o) {
  const std::int64_t n = t.n;
  if constexpr (K == InnerKind::kScalar) {
    *o += *l * *r;
  } else if constexpr (K == InnerKind::kDotU) {
    double acc = 0;
    for (std::int64_t i = 0; i < n; ++i) acc += l[i] * r[i];
    *o += acc;
  } else if constexpr (K == InnerKind::kDotG) {
    double acc = 0;
    for (std::int64_t i = 0; i < n; ++i) acc += l[i * t.ls] * r[i * t.rs];
    *o += acc;
  } else if constexpr (K == InnerKind::kAxpyLU) {
    const double a = *l;
    for (std::int64_t i = 0; i < n; ++i) o[i] += a * r[i];
  } else if constexpr (K == InnerKind::kAxpyLG) {
    const double a = *l;
    for (std::int64_t i = 0; i < n; ++i) o[i * t.os] += a * r[i * t.rs];
  } else if constexpr (K == InnerKind::kAxpyRU) {
    const double a = *r;
    for (std::int64_t i = 0; i < n; ++i) o[i] += a * l[i];
  } else if constexpr (K == InnerKind::kAxpyRG) {
    const double a = *r;
    for (std::int64_t i = 0; i < n; ++i) o[i * t.os] += a * l[i * t.ls];
  } else if constexpr (K == InnerKind::kHadU) {
    for (std::int64_t i = 0; i < n; ++i) o[i] += l[i] * r[i];
  } else {
    static_assert(K == InnerKind::kHadG);
    for (std::int64_t i = 0; i < n; ++i) {
      o[i * t.os] += l[i * t.ls] * r[i * t.rs];
    }
  }
}

/// `depth` >= 1 collapsed outer levels, outermost first, then the innermost
/// kernel. The last outer level calls the kernel from its own loop, so the
/// common one-level case runs without a recursive call per iteration.
template <InnerKind K>
void run_levels(const LTerm& t, const Level* lv, std::int32_t depth,
                const double* l, const double* r, double* o) {
  if (depth == 1) {
    for (std::int64_t i = 0; i < lv->ext; ++i) {
      apply_inner<K>(t, l + i * lv->ls, r + i * lv->rs, o + i * lv->os);
    }
    return;
  }
  for (std::int64_t i = 0; i < lv->ext; ++i) {
    run_levels<K>(t, lv + 1, depth - 1, l + i * lv->ls, r + i * lv->rs,
                  o + i * lv->os);
  }
}

template <InnerKind K>
void run_term_k(const LoweredProgram& p, const LTerm& t, const double* l,
                const double* r, double* o) {
  if (t.outer_depth == 0) {
    apply_inner<K>(t, l, r, o);
  } else {
    run_levels<K>(t, p.levels.data() + t.level_begin, t.outer_depth, l, r, o);
  }
}

void run_term(const LoweredProgram& p, const ExecCtx& ctx, const LTerm& t) {
  const double* l = opd_addr(p, t.lhs, ctx);
  const double* r = opd_addr(p, t.rhs, ctx);
  double* o = opd_addr(p, t.out, ctx);
  switch (t.inner) {
    case InnerKind::kScalar:
      run_term_k<InnerKind::kScalar>(p, t, l, r, o);
      break;
    case InnerKind::kDotU: run_term_k<InnerKind::kDotU>(p, t, l, r, o); break;
    case InnerKind::kDotG: run_term_k<InnerKind::kDotG>(p, t, l, r, o); break;
    case InnerKind::kAxpyLU:
      run_term_k<InnerKind::kAxpyLU>(p, t, l, r, o);
      break;
    case InnerKind::kAxpyLG:
      run_term_k<InnerKind::kAxpyLG>(p, t, l, r, o);
      break;
    case InnerKind::kAxpyRU:
      run_term_k<InnerKind::kAxpyRU>(p, t, l, r, o);
      break;
    case InnerKind::kAxpyRG:
      run_term_k<InnerKind::kAxpyRG>(p, t, l, r, o);
      break;
    case InnerKind::kHadU: run_term_k<InnerKind::kHadU>(p, t, l, r, o); break;
    case InnerKind::kHadG: run_term_k<InnerKind::kHadG>(p, t, l, r, o); break;
  }
}

/// The fused sparse-loop body: branchless operand addressing per nonzero,
/// kernel switch hoisted out of the loop by the template instantiation.
template <InnerKind K>
void chain_loop(const LTerm& t, const Level* lv, const LChain& c,
                const std::int64_t* idx, const double* lb, const double* rb,
                double* ob, std::int64_t begin, std::int64_t end) {
  if (t.outer_depth == 0) {
    for (std::int64_t p = begin; p < end; ++p) {
      const std::int64_t iv = idx[p];
      apply_inner<K>(t, lb + iv * c.l_idx + p * c.l_leaf,
                     rb + iv * c.r_idx + p * c.r_leaf,
                     ob + iv * c.o_idx + p * c.o_leaf);
    }
    return;
  }
  for (std::int64_t p = begin; p < end; ++p) {
    const std::int64_t iv = idx[p];
    run_levels<K>(t, lv, t.outer_depth, lb + iv * c.l_idx + p * c.l_leaf,
                  rb + iv * c.r_idx + p * c.r_leaf,
                  ob + iv * c.o_idx + p * c.o_leaf);
  }
}

void run_chain(const LoweredProgram& p, ExecCtx& ctx, const LLoop& loop,
               std::int64_t begin, std::int64_t end) {
  const LChain& c = loop.chain;
  const LTerm& t = p.terms[static_cast<std::size_t>(c.term)];
  const Level* lv = p.levels.data() + t.level_begin;
  // Loop-invariant operand parts resolve once; only the chain multipliers
  // vary inside the nonzero loop.
  const double* lb = opd_addr(p, t.lhs, ctx);
  const double* rb = opd_addr(p, t.rhs, ctx);
  double* ob = opd_addr(p, t.out, ctx);
  const std::int64_t* idx = ctx.csf->level_idx(loop.csf_level).data();
  switch (t.inner) {
    case InnerKind::kScalar:
      chain_loop<InnerKind::kScalar>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kDotU:
      chain_loop<InnerKind::kDotU>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kDotG:
      chain_loop<InnerKind::kDotG>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kAxpyLU:
      chain_loop<InnerKind::kAxpyLU>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kAxpyLG:
      chain_loop<InnerKind::kAxpyLG>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kAxpyRU:
      chain_loop<InnerKind::kAxpyRU>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kAxpyRG:
      chain_loop<InnerKind::kAxpyRG>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kHadU:
      chain_loop<InnerKind::kHadU>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
    case InnerKind::kHadG:
      chain_loop<InnerKind::kHadG>(t, lv, c, idx, lb, rb, ob, begin, end);
      break;
  }
}

void run_op(const LoweredProgram& p, ExecCtx& ctx, const LOp& op);

void run_body(const LoweredProgram& p, ExecCtx& ctx, const LLoop& loop,
              std::int64_t begin, std::int64_t end) {
  if (loop.sparse) {
    const std::int64_t* idx = ctx.csf->level_idx(loop.csf_level).data();
    std::int64_t* iv = ctx.idx_val.data() + loop.index;
    std::int64_t* node = ctx.csf_node.data() + loop.csf_level;
    for (std::int64_t n = begin; n < end; ++n) {
      *iv = idx[n];
      *node = n;
      for (const LOp& op : loop.body) run_op(p, ctx, op);
    }
  } else {
    std::int64_t* iv = ctx.idx_val.data() + loop.index;
    for (std::int64_t i = begin; i < end; ++i) {
      *iv = i;
      for (const LOp& op : loop.body) run_op(p, ctx, op);
    }
  }
}

void run_op(const LoweredProgram& p, ExecCtx& ctx, const LOp& op) {
  switch (op.kind) {
    case LOp::Kind::kTerm:
      run_term(p, ctx, p.terms[static_cast<std::size_t>(op.id)]);
      break;
    case LOp::Kind::kReset: {
      const LReset& r = p.resets[static_cast<std::size_t>(op.id)];
      std::memset(ctx.table[static_cast<std::size_t>(r.slot)], 0,
                  static_cast<std::size_t>(r.len) * sizeof(double));
      break;
    }
    case LOp::Kind::kLoop: {
      const LLoop& l = p.loops[static_cast<std::size_t>(op.id)];
      std::int64_t begin = 0;
      std::int64_t end = 0;
      if (l.sparse) {
        if (l.csf_level == 0) {
          end = ctx.csf->num_nodes(0);
        } else {
          const auto ptr = ctx.csf->level_ptr(l.csf_level - 1);
          const std::int64_t parent =
              ctx.csf_node[static_cast<std::size_t>(l.csf_level - 1)];
          begin = ptr[static_cast<std::size_t>(parent)];
          end = ptr[static_cast<std::size_t>(parent + 1)];
        }
      } else {
        end = l.extent;
      }
      run_loop(p, ctx, op.id, begin, end);
      break;
    }
  }
}

}  // namespace

void run_loop(const LoweredProgram& p, ExecCtx& ctx, std::int32_t loop,
              std::int64_t begin, std::int64_t end) {
  const LLoop& l = p.loops[static_cast<std::size_t>(loop)];
  if (l.is_chain) {
    run_chain(p, ctx, l, begin, end);
    return;
  }
  run_body(p, ctx, l, begin, end);
}

void run_top(const LoweredProgram& p, ExecCtx& ctx, std::size_t t) {
  run_op(p, ctx, p.top[t]);
}

std::size_t LoweredProgram::bytes() const {
  std::size_t b = sizeof(LoweredProgram);
  b += loops.capacity() * sizeof(LLoop);
  for (const LLoop& l : loops) b += l.body.capacity() * sizeof(LOp);
  b += terms.capacity() * sizeof(LTerm);
  b += resets.capacity() * sizeof(LReset);
  b += slots.capacity() * sizeof(SlotSource);
  b += top.capacity() * sizeof(LOp);
  b += deps.capacity() * sizeof(Dep);
  b += levels.capacity() * sizeof(Level);
  return b;
}

}  // namespace spttn::lowered
