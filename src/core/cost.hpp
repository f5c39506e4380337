// Tree-separable cost functions over fully-fused loop nests
// (paper Definitions 4.4, 4.5, 4.6 and the Section-5 experiment metric).
//
// A cost model supplies phi (applied when a root loop is peeled) and an
// associative combine for sibling trees. Both must be nondecreasing, which
// is what makes Algorithm 1 exact. Cost values are lexicographic triples so
// feasibility filters, loop-structure rewards and cache models compose.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/contraction_path.hpp"
#include "core/loop_order.hpp"
#include "util/index_set.hpp"

namespace spttn {

/// Lexicographically ordered cost value. Models use the fields they need;
/// unused fields stay zero.
struct Cost {
  double primary = 0;
  double secondary = 0;
  double tertiary = 0;

  static Cost inf() {
    return {std::numeric_limits<double>::infinity(), 0, 0};
  }
  bool is_inf() const { return std::isinf(primary); }

  friend bool operator<(const Cost& a, const Cost& b) {
    if (a.primary != b.primary) return a.primary < b.primary;
    if (a.secondary != b.secondary) return a.secondary < b.secondary;
    return a.tertiary < b.tertiary;
  }
  friend bool operator==(const Cost& a, const Cost& b) {
    return a.primary == b.primary && a.secondary == b.secondary &&
           a.tertiary == b.tertiary;
  }
  std::string to_string() const;
};

/// Context for one peeling step. The current subproblem covers terms
/// [first, last) with `removed` already iterated by enclosing loops; the
/// root loop over index `root` covers terms [first, split_end).
struct PeelContext {
  const Kernel* kernel = nullptr;
  const ContractionPath* path = nullptr;
  int first = 0;
  int split_end = 0;
  int last = 0;
  IndexSet removed;
  int root = -1;
};

/// Context when a term whose indices are all removed executes directly at
/// the current position (Algorithm 1 line 5).
struct DropContext {
  const Kernel* kernel = nullptr;
  const ContractionPath* path = nullptr;
  int term = 0;
  int last = 0;
  IndexSet removed;
};

/// Interface of a tree-separable cost function (Definition 4.4).
class TreeCost {
 public:
  virtual ~TreeCost() = default;

  /// phi_{T,L,r}: wrap the combined cost of the subtrees under the peeled
  /// root. Must be nondecreasing in x.
  virtual Cost phi(const PeelContext& ctx, const Cost& x) const = 0;

  /// ⊕: combine sibling trees of a forest. Associative, nondecreasing.
  virtual Cost combine(const Cost& a, const Cost& b) const = 0;

  /// Identity of ⊕ (cost of the empty forest).
  virtual Cost zero() const = 0;

  /// Adjustment when a fully-iterated term executes in place (its output is
  /// a scalar buffer). Default: no contribution.
  virtual Cost drop(const DropContext& ctx, const Cost& x) const {
    (void)ctx;
    return x;
  }

  virtual std::string name() const = 0;
};

/// Buffer dimensions of intermediates crossing the current peel:
/// for producers in [first, split_end) whose consumer lies in
/// [split_end, last), the buffer index count |out(p) \ removed| (Eq. 5).
int crossing_buffer_dim(const PeelContext& ctx);
/// Same, but the element count (product of index dimensions).
double crossing_buffer_size(const PeelContext& ctx);

/// Definition 4.5: maximum intermediate-tensor dimension.
/// phi = max(rho, x), ⊕ = max.
class MaxBufferDimCost final : public TreeCost {
 public:
  Cost phi(const PeelContext& ctx, const Cost& x) const override;
  Cost combine(const Cost& a, const Cost& b) const override;
  Cost zero() const override { return {}; }
  std::string name() const override { return "max-buffer-dim"; }
};

/// Definition 4.5 variant: maximum intermediate-tensor element count.
class MaxBufferSizeCost final : public TreeCost {
 public:
  Cost phi(const PeelContext& ctx, const Cost& x) const override;
  Cost combine(const Cost& a, const Cost& b) const override;
  Cost zero() const override { return {}; }
  Cost drop(const DropContext& ctx, const Cost& x) const override;
  std::string name() const override { return "max-buffer-size"; }
};

/// Definition 4.6: total cache misses under the paper's model — the cache
/// holds subtensors of size I^D; a loop over r incurs one miss per iteration
/// for every tensor indexed by r that still has more than D unbound indices.
/// phi = I(r) * (tau + x), ⊕ = +.
///
/// Extension (the paper notes the model "can be extended"): each
/// intermediate crossing a peel also charges its zero + stream traffic
/// (2 * elements / 8 line-sized misses) at its deepest common ancestor, so
/// frequently reset large workspaces are penalized. This remains
/// tree-separable (an additive term of the peel).
class CacheMissCost final : public TreeCost {
 public:
  /// `d` is the model's subtensor order D. When `stats` is provided and
  /// sparse_aware is true, sparse loops use expected CSF fan-out instead of
  /// the dense dimension for I(r).
  explicit CacheMissCost(int d = 1, const SparsityStats* stats = nullptr,
                         bool sparse_aware = false)
      : d_(d), stats_(stats), sparse_aware_(sparse_aware) {}

  Cost phi(const PeelContext& ctx, const Cost& x) const override;
  Cost combine(const Cost& a, const Cost& b) const override;
  Cost zero() const override { return {}; }
  std::string name() const override { return "cache-miss"; }

  /// Effective trip count of a loop (dense dim, or CSF fan-out when
  /// sparse-aware). Exposed for tests.
  double loop_extent(const PeelContext& ctx) const;

 private:
  int d_;
  const SparsityStats* stats_;
  bool sparse_aware_;
};

/// The Section-5 experiment metric: among loop nests whose intermediate
/// dimensions are all <= bound, prefer the fewest fiber-coordinate buffer
/// indices, then the maximum number of independent dense loops (loops
/// covering a single term — BLAS offload candidates), then the fewest
/// modeled cache misses.
///   primary   : +inf when any crossing buffer dim exceeds the bound;
///               otherwise, summed over peels, the count of crossing-buffer
///               indices that are sparse modes whose shallower CSF levels
///               are all in removed ∪ {root}. Such a buffer is dense over
///               the mode's full extent, zeroed per parent fiber, and
///               touched only at the fiber's fanout. The count is additive
///               and never makes a kernel infeasible.
///   secondary : minus the number of independent dense loops. Such a loop
///               runs over a dense index (no CSF level), covers one term,
///               and every index that term still iterates is dense too. A
///               sparse mode run as a dense range never counts: term_flops
///               already charges that densification.
///   tertiary  : cache misses (Definition 4.6)
class BoundedBufferBlasCost final : public TreeCost {
 public:
  BoundedBufferBlasCost(int buffer_dim_bound, int d = 1,
                        const SparsityStats* stats = nullptr,
                        bool sparse_aware = false)
      : bound_(buffer_dim_bound), cache_(d, stats, sparse_aware) {}

  Cost phi(const PeelContext& ctx, const Cost& x) const override;
  Cost combine(const Cost& a, const Cost& b) const override;
  Cost zero() const override { return {}; }
  std::string name() const override { return "bounded-buffer-blas"; }

  int bound() const { return bound_; }

 private:
  int bound_;
  CacheMissCost cache_;
};

/// Evaluate a complete loop order against a cost model by recursive peeling
/// (Definition 4.4). Independent of the DP — used for enumeration-based
/// search and as the property-test oracle for Algorithm 1.
Cost evaluate_cost(const Kernel& kernel, const ContractionPath& path,
                   const LoopOrder& order, const TreeCost& cost);

}  // namespace spttn
