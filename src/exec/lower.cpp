#include "exec/lower.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace spttn {

namespace {

using cprog::Base;
using cprog::CAccess;
using cprog::CActionRef;
using cprog::CLoop;
using cprog::CompiledView;
using cprog::CTerm;
using lowered::InnerKind;
using lowered::LChain;
using lowered::LLoop;
using lowered::LOp;
using lowered::LoweredProgram;
using lowered::LTerm;
using lowered::Operand;

bool leaf_addressed(const CAccess& a) {
  return a.base == Base::kSparseVal || a.base == Base::kOutSparse;
}

/// Stride of `a` along loop index `index` (0 when it does not depend on it).
std::int64_t stride_along(const CAccess& a, int index) {
  for (const auto& [idx, stride] : a.outer) {
    if (idx == index) return stride;
  }
  return 0;
}

struct Lowerer {
  const CompiledView& prog;
  LoweredProgram out;

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
  /// then spilled to the dep pool), leaving out the one on `chain_index`
  /// (the enclosing chain loop's index, which the chain multiplier carries
  /// instead).
  Operand lower_operand(const CAccess& a, int chain_index) {
    // kSparseVal / kOutSparse are leaf-addressed singletons; the others key
    // the slot table by their id.
    const bool indexed = a.base == Base::kDense || a.base == Base::kBuffer;
    Operand o;
    o.slot = slot_for(a.base, indexed ? a.id : 0);
    o.leaf = leaf_addressed(a) && chain_index < 0;
    o.spill_begin = static_cast<std::int32_t>(out.deps.size());
    for (const auto& [idx, stride] : a.outer) {
      if (idx == chain_index) continue;
      if (o.ndeps < lowered::kInlineDeps) {
        o.inl[static_cast<std::size_t>(o.ndeps)] = {idx, stride};
      } else {
        out.deps.push_back({idx, stride});
      }
      ++o.ndeps;
    }
    return o;
  }

  /// Lower one term and return its id. Kernel selection: out stride 0 =>
  /// dot, lhs 0 => axpy(alpha = *lhs), rhs 0 => axpy(alpha = *rhs), else
  /// hadamard, with the unit-stride instantiation chosen by the same
  /// conditions kernels.cpp fast-paths on.
  std::int32_t lower_term(const CTerm& ct, int chain_index) {
    LTerm t;
    t.lhs = lower_operand(ct.lhs, chain_index);
    t.rhs = lower_operand(ct.rhs, chain_index);
    t.out = lower_operand(ct.out, chain_index);
    const std::size_t depth = ct.extent.size();
    if (depth > 0) {
      const std::size_t last = depth - 1;
      t.n = ct.extent[last];
      t.ls = ct.lhs.inner[last];
      t.rs = ct.rhs.inner[last];
      t.os = ct.out.inner[last];
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
      t.outer_depth = static_cast<std::int32_t>(last);
      for (std::size_t l = 0; l < last; ++l) {
        out.levels.push_back({ct.extent[l], ct.lhs.inner[l], ct.rhs.inner[l],
                              ct.out.inner[l]});
      }
    }
    out.terms.push_back(t);
    return static_cast<std::int32_t>(out.terms.size()) - 1;
  }

  /// A sparse loop whose body is one term fuses into a chain when every
  /// operand depends on the loop index through at most one (index, stride)
  /// pair (a repeated index is a diagonal access) and leaf-addressed
  /// operands sit under the CSF leaf level itself (elsewhere the leaf node
  /// is not a function of the loop position).
  bool chainable(const CLoop& cl) const {
    if (!cl.sparse || cl.body.size() != 1 ||
        cl.body.front().kind != CActionRef::Kind::kTerm) {
      return false;
    }
    const CTerm& ct = prog.terms[static_cast<std::size_t>(cl.body.front().id)];
    const bool leaf_loop = cl.csf_level == prog.csf_order - 1;
    const CAccess* operands[] = {&ct.lhs, &ct.rhs, &ct.out};
    return std::all_of(
        std::begin(operands), std::end(operands), [&](const CAccess* a) {
          return (leaf_loop || !leaf_addressed(*a)) &&
                 std::count_if(a->outer.begin(), a->outer.end(),
                               [&](const auto& d) {
                                 return d.first == cl.index;
                               }) <= 1;
        });
  }

  LOp lower_action(const CActionRef& a) {
    if (a.kind == CActionRef::Kind::kTerm) {
      return {LOp::Kind::kTerm,
              lower_term(prog.terms[static_cast<std::size_t>(a.id)], -1)};
    }
    if (a.kind == CActionRef::Kind::kReset) {
      out.resets.push_back({slot_for(Base::kBuffer, a.id),
                            prog.buffer_len[static_cast<std::size_t>(a.id)]});
      return {LOp::Kind::kReset,
              static_cast<std::int32_t>(out.resets.size()) - 1};
    }
    lower_loop(a.id);
    return {LOp::Kind::kLoop, a.id};
  }

  /// Lower compiled loop `cid` into out.loops[cid] (pre-sized, so the
  /// reference stays valid while the body recurses).
  void lower_loop(int cid) {
    const CLoop& cl = prog.loops[static_cast<std::size_t>(cid)];
    LLoop& ll = out.loops[static_cast<std::size_t>(cid)];
    ll.index = cl.index;
    ll.sparse = cl.sparse;
    ll.csf_level = cl.csf_level;
    ll.extent = cl.extent;
    if (chainable(cl)) {
      const CTerm& ct =
          prog.terms[static_cast<std::size_t>(cl.body.front().id)];
      LChain& c = ll.chain;
      c.l_idx = stride_along(ct.lhs, cl.index);
      c.r_idx = stride_along(ct.rhs, cl.index);
      c.o_idx = stride_along(ct.out, cl.index);
      c.l_leaf = leaf_addressed(ct.lhs) ? 1 : 0;
      c.r_leaf = leaf_addressed(ct.rhs) ? 1 : 0;
      c.o_leaf = leaf_addressed(ct.out) ? 1 : 0;
      c.term = lower_term(ct, cl.index);
      ll.is_chain = true;
      return;
    }
    ll.body.reserve(cl.body.size());
    for (const CActionRef& a : cl.body) ll.body.push_back(lower_action(a));
  }
};

}  // namespace

lowered::LoweredProgram lower_program(const cprog::CompiledView& prog) {
  Lowerer lw{prog, {}};
  lw.out.loops.resize(prog.loops.size());
  lw.out.top.reserve(prog.top.size());
  for (const CActionRef& a : prog.top) lw.out.top.push_back(lw.lower_action(a));
  return std::move(lw.out);
}

}  // namespace spttn
