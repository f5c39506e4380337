#include "core/cost.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace spttn {

std::string Cost::to_string() const {
  return strfmt("(%.6g, %.6g, %.6g)", primary, secondary, tertiary);
}

int crossing_buffer_dim(const PeelContext& ctx) {
  int dim = 0;
  for (int p = ctx.first; p < ctx.split_end; ++p) {
    const int c = ctx.path->consumer_of(p);
    if (c >= ctx.split_end && c < ctx.last) {
      dim = std::max(dim,
                     (ctx.path->term(p).out - ctx.removed).size());
    }
  }
  return dim;
}

double crossing_buffer_size(const PeelContext& ctx) {
  double size = 0;
  for (int p = ctx.first; p < ctx.split_end; ++p) {
    const int c = ctx.path->consumer_of(p);
    if (c >= ctx.split_end && c < ctx.last) {
      double s = 1;
      for (int id : (ctx.path->term(p).out - ctx.removed).elements()) {
        s *= static_cast<double>(ctx.kernel->index_dim(id));
      }
      size = std::max(size, s);
    }
  }
  return size;
}

// --- MaxBufferDimCost ---

Cost MaxBufferDimCost::phi(const PeelContext& ctx, const Cost& x) const {
  Cost out = x;
  out.primary =
      std::max(out.primary, static_cast<double>(crossing_buffer_dim(ctx)));
  return out;
}

Cost MaxBufferDimCost::combine(const Cost& a, const Cost& b) const {
  return {std::max(a.primary, b.primary), 0, 0};
}

// --- MaxBufferSizeCost ---

Cost MaxBufferSizeCost::phi(const PeelContext& ctx, const Cost& x) const {
  Cost out = x;
  out.primary = std::max(out.primary, crossing_buffer_size(ctx));
  return out;
}

Cost MaxBufferSizeCost::combine(const Cost& a, const Cost& b) const {
  return {std::max(a.primary, b.primary), 0, 0};
}

Cost MaxBufferSizeCost::drop(const DropContext& ctx, const Cost& x) const {
  // A fully-iterated term writes a scalar buffer (one element) unless it is
  // the final term.
  const int c = ctx.path->consumer_of(ctx.term);
  if (c < 0 || c >= ctx.last) return x;
  Cost out = x;
  out.primary = std::max(out.primary, 1.0);
  return out;
}

// --- CacheMissCost ---

namespace {

/// Model of the runtime's CSF-iteration rule: a loop over `id` iterates the
/// CSF tree when `id` is a sparse mode and every shallower mode is in
/// `bound`. (The runtime decides by nesting depth; this set-based form is
/// what keeps the cost a function of (path, removed, root) so the DP
/// memoization stays exact.)
bool iterates_sparsely(const Kernel& kernel, int id, const IndexSet& bound) {
  const int lvl = kernel.csf_level(id);
  if (lvl < 0) return false;
  const auto& csf_order = kernel.sparse_ref().idx;
  for (int l = 0; l < lvl; ++l) {
    if (!bound.contains(csf_order[static_cast<std::size_t>(l)])) return false;
  }
  return true;
}

bool root_iterates_sparsely(const PeelContext& ctx) {
  return iterates_sparsely(*ctx.kernel, ctx.root, ctx.removed);
}

}  // namespace

double CacheMissCost::loop_extent(const PeelContext& ctx) const {
  const int lvl = ctx.kernel->csf_level(ctx.root);
  if (sparse_aware_ && stats_ != nullptr && root_iterates_sparsely(ctx)) {
    // Expected trip count of a CSF loop: fan-out at its level, conditioned
    // on the enclosing sparse prefix.
    const double parent = static_cast<double>(stats_->prefix_nnz(lvl));
    const double self = static_cast<double>(stats_->prefix_nnz(lvl + 1));
    return parent > 0 ? self / parent : 1.0;
  }
  return static_cast<double>(ctx.kernel->index_dim(ctx.root));
}

Cost CacheMissCost::phi(const PeelContext& ctx, const Cost& x) const {
  // tau: tensor references (operands and outputs of covered terms) indexed
  // by the root that still have more than D unbound indices.
  int tau = 0;
  const IndexSet gone = ctx.removed | IndexSet{ctx.root};
  for (int t = ctx.first; t < ctx.split_end; ++t) {
    const PathTerm& term = ctx.path->term(t);
    for (const IndexSet& ref :
         {term.lhs.iset, term.rhs.iset, term.out}) {
      if (!ref.contains(ctx.root)) continue;
      if ((ref - gone).size() >= d_) ++tau;
    }
  }
  Cost out = x;
  out.primary = loop_extent(ctx) * (static_cast<double>(tau) + x.primary);
  // Intermediates crossing this peel are zeroed and streamed once per
  // iteration of the enclosing scope: charge 2 * elements / 8 misses.
  for (int p = ctx.first; p < ctx.split_end; ++p) {
    const int c = ctx.path->consumer_of(p);
    if (c >= ctx.split_end && c < ctx.last) {
      double size = 1;
      for (int id : (ctx.path->term(p).out - ctx.removed).elements()) {
        size *= static_cast<double>(ctx.kernel->index_dim(id));
      }
      out.primary += 2.0 * size / 8.0;
    }
  }
  return out;
}

Cost CacheMissCost::combine(const Cost& a, const Cost& b) const {
  return {a.primary + b.primary, 0, 0};
}

// --- BoundedBufferBlasCost ---

Cost BoundedBufferBlasCost::phi(const PeelContext& ctx, const Cost& x) const {
  Cost out;
  // Feasibility: every intermediate dimension within the bound.
  const int dim = crossing_buffer_dim(ctx);
  out.primary = x.primary;
  if (dim > bound_) out.primary = std::numeric_limits<double>::infinity();

  // Fiber-coordinate buffer indices: a crossing buffer indexed by a sparse
  // mode whose shallower CSF levels are all bound here is stored densely
  // over that mode's full extent, zeroed once per parent fiber, and touched
  // only at the fiber's fanout. The cache-miss tertiary charges that
  // memset too, but only after the independent-dense-loop count decided.
  const IndexSet bound_here = ctx.removed | IndexSet{ctx.root};
  for (int p = ctx.first; p < ctx.split_end; ++p) {
    const int c = ctx.path->consumer_of(p);
    if (c < ctx.split_end || c >= ctx.last) continue;
    for (int id : (ctx.path->term(p).out - ctx.removed).elements()) {
      if (iterates_sparsely(*ctx.kernel, id, bound_here)) out.primary += 1.0;
    }
  }

  // Independent dense loops: the root covers exactly one term, and every
  // index that term still iterates, the root among them, is dense — i.e.
  // the loop belongs to a trailing all-dense chain the executor can
  // collapse into a BLAS-style kernel. Outer dense loops wrapped around
  // sparse traversals do not count (they cannot be offloaded and force
  // repeated CSF walks). Neither does a sparse mode run as a dense range:
  // that densification is what term_flops charges prefix_nnz · extent for,
  // and rewarding it here would outrank a lower-flop path in the group.
  const bool independent_dense =
      ctx.split_end - ctx.first == 1 &&
      !(ctx.path->term(ctx.first).refs - ctx.removed)
           .intersects(ctx.kernel->sparse_modes());
  out.secondary = x.secondary - (independent_dense ? 1.0 : 0.0);

  // Cache misses for tie-breaking.
  Cost cache_in;
  cache_in.primary = x.tertiary;
  out.tertiary = cache_.phi(ctx, cache_in).primary;
  return out;
}

Cost BoundedBufferBlasCost::combine(const Cost& a, const Cost& b) const {
  return {a.primary + b.primary,  // inf propagates; finite parts are 0
          a.secondary + b.secondary, a.tertiary + b.tertiary};
}

// --- evaluate_cost ---

namespace {

struct EvalPiece {
  int term;
  std::vector<int> suffix;
};

Cost eval_rec(const Kernel& kernel, const ContractionPath& path,
              const std::vector<EvalPiece>& pieces, std::size_t begin,
              std::size_t end, IndexSet removed, int last_term,
              const TreeCost& cost) {
  if (begin == end) return cost.zero();
  // Strip removed indices lazily: recompute the live suffix of each piece.
  const auto live_front = [&](const EvalPiece& p) -> int {
    for (int id : p.suffix) {
      if (!removed.contains(id)) return id;
    }
    return -1;
  };
  const EvalPiece& head = pieces[begin];
  const int q = live_front(head);
  if (q < 0) {
    DropContext dctx;
    dctx.kernel = &kernel;
    dctx.path = &path;
    dctx.term = head.term;
    dctx.last = last_term;
    dctx.removed = removed;
    const Cost rest = eval_rec(kernel, path, pieces, begin + 1, end, removed,
                               last_term, cost);
    return cost.drop(dctx, rest);
  }
  // Extend the covered group while the live front matches q.
  std::size_t split = begin;
  while (split < end && live_front(pieces[split]) == q) ++split;

  PeelContext ctx;
  ctx.kernel = &kernel;
  ctx.path = &path;
  ctx.first = pieces[begin].term;
  ctx.split_end = pieces[split - 1].term + 1;
  ctx.last = last_term;
  ctx.removed = removed;
  ctx.root = q;

  IndexSet with_q = removed;
  with_q.insert(q);
  const Cost x = eval_rec(kernel, path, pieces, begin, split, with_q,
                          pieces[split - 1].term + 1, cost);
  const Cost y =
      eval_rec(kernel, path, pieces, split, end, removed, last_term, cost);
  return cost.combine(cost.phi(ctx, x), y);
}

}  // namespace

Cost evaluate_cost(const Kernel& kernel, const ContractionPath& path,
                   const LoopOrder& order, const TreeCost& cost) {
  SPTTN_CHECK(is_valid_order(path, order));
  std::vector<EvalPiece> pieces;
  pieces.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pieces.push_back({static_cast<int>(i), order[i]});
  }
  return eval_rec(kernel, path, pieces, 0, pieces.size(), IndexSet{},
                  path.num_terms(), cost);
}

}  // namespace spttn
