// Contraction paths for SpTTN kernels (paper Definition 3.1, Section 4.1.1).
//
// A contraction path orders the N pairwise contractions that combine the
// N+1 input tensors. Each term L_i records its two operands, the union of
// referenced indices, and its output index set (indices alive afterwards).
//
// contract_pair is the one rule that builds a term. The planner's path
// search (core/planner.hpp) walks pair sequences with it, dropping prefixes
// by term_csf_prefix_executable and by partial term_flops sums;
// enumerate_paths walks every sequence in the same order, unpruned, for the
// pairwise baseline and as the tests' exhaustive reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "tensor/einsum.hpp"
#include "util/index_set.hpp"

namespace spttn {

/// One operand of a path term: either an original kernel input or the
/// intermediate produced by an earlier term.
struct PathOperand {
  enum class Kind { kInput, kIntermediate };
  Kind kind = Kind::kInput;
  int id = 0;  ///< input position, or producing term index
  IndexSet iset;

  bool operator==(const PathOperand&) const = default;
};

/// One contraction term L_i = (u, v, w).
struct PathTerm {
  PathOperand lhs;
  PathOperand rhs;
  IndexSet refs;  ///< u ∪ v: every index looped by this term
  IndexSet out;   ///< w: indices of the produced tensor
  /// True when sparse-tensor data flows through an operand of this term.
  bool carries_sparse = false;
  /// refs ∩ sparse modes, regardless of whether sparse data flows.
  IndexSet sparse_refs;

  bool operator==(const PathTerm&) const = default;
};

/// Ordered contraction path (T, L) of Definition 3.1.
struct ContractionPath {
  std::vector<PathTerm> terms;

  int num_terms() const { return static_cast<int>(terms.size()); }
  const PathTerm& term(int i) const {
    return terms[static_cast<std::size_t>(i)];
  }

  /// Index of the term that consumes term i's output, or -1 for the final
  /// term (whose output is the kernel output).
  int consumer_of(int i) const;

  /// True when every term passes term_csf_prefix_executable — the condition
  /// for all-at-once execution with a single CSF tree (paper Section 5).
  bool csf_prefix_executable(const Kernel& kernel) const;

  /// Human-readable rendering, e.g.
  ///   "T(i,j,k)*V(k,s) -> X1(i,j,s); X1(i,j,s)*U(j,r) -> S(i,r,s)".
  std::string to_string(const Kernel& kernel) const;

  bool operator==(const ContractionPath&) const = default;
};

/// The single-CSF rule for one term: when sparse data flows through the
/// term, its referenced sparse indices are exactly the first
/// |sparse_refs| modes of the CSF order. A prefix of terms that breaks it
/// has no executable completion.
bool term_csf_prefix_executable(const Kernel& kernel, const PathTerm& term);

/// One entry of a partial path's working list (Section 4.1.1 recursion): an
/// operand still to be contracted, and whether sparse data flows through it.
struct PathItem {
  PathOperand op;
  bool carries_sparse = false;
};

/// The working list before any contraction: every kernel input, in order.
std::vector<PathItem> input_items(const Kernel& kernel);

/// The pair-contraction rule of every path search: the term contracting
/// items[a] * items[b] (a < b), whose output keeps the indices that another
/// item or the kernel output still needs. When `rest` is non-null it
/// receives the reduced working list: items[b] removed and items[a]
/// replaced by the term's intermediate. Each term shortens the list by one,
/// so that intermediate is term kernel.num_inputs() - items.size().
PathTerm contract_pair(const Kernel& kernel, const std::vector<PathItem>& items,
                       std::size_t a, std::size_t b,
                       std::vector<PathItem>* rest = nullptr);

/// Sparsity statistics driving path cost estimates: distinct-prefix counts
/// along the CSF order (paper Section 2.2) and the structure fingerprint of
/// the tensor they were taken from. A plain value: it holds no reference to
/// the tensor. The pairwise baseline, which also needs projections onto
/// non-prefix mode subsets, counts them on the tensor itself
/// (exec/pairwise.hpp).
class SparsityStats {
 public:
  /// Exact statistics from a tensor (must be sort_dedup()ed).
  static SparsityStats from_coo(const CooTensor& coo);

  /// Model statistics for a uniformly random tensor of the given shape.
  static SparsityStats uniform(const std::vector<std::int64_t>& dims,
                               std::int64_t nnz);

  /// nnz(I1..Ik) for k in [0, order].
  std::int64_t prefix_nnz(int k) const {
    return prefix_[static_cast<std::size_t>(k)];
  }

  int order() const { return static_cast<int>(prefix_.size()) - 1; }

  /// Structure fingerprint of the tensor these stats were taken from
  /// (CooTensor::structure_hash()); 0 for modeled (uniform) stats. Plans
  /// carry it so the executor can verify a cached plan runs against the
  /// structure it was planned for.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::vector<std::int64_t> prefix_;  ///< prefix_[k] = nnz(I1..Ik)
  std::uint64_t fingerprint_ = 0;
};

/// Leading-order scalar-operation estimate of one term of a fused nest
/// (2 FLOPs per iteration point). A loop iterates the CSF tree only when
/// every shallower sparse mode encloses it (LoopTree::build), so the term's
/// iteration points are prefix_nnz(p) for the longest CSF prefix p inside
/// its sparse refs, times the full extent of every other index it
/// references — sparse modes outside that prefix included, since they run
/// as dense loops.
double term_flops(const Kernel& kernel, const PathTerm& term,
                  const SparsityStats& stats);

/// Leading-order scalar-operation estimate of executing `path` all-at-once:
/// the sum of term_flops in term order.
double path_flops(const Kernel& kernel, const ContractionPath& path,
                  const SparsityStats& stats);

/// Enumerate every ordered contraction path of the kernel
/// (Section 4.1.1 recursion: pick all pairs, recurse on the reduced list).
/// The number of results follows T(n) = C(n,2)·T(n-1).
std::vector<ContractionPath> enumerate_paths(const Kernel& kernel);

/// Closed-form count of ordered contraction paths for n input tensors:
/// n! (n-1)! / 2^(n-1), saturating at INT64_MAX (from n = 16).
std::uint64_t count_paths(int n);

/// Build the left-to-right chain path contracting the sparse input with the
/// remaining inputs in the given order (input positions, excluding the
/// sparse input; empty = expression order). This is the schedule shape used
/// by the SparseLNR-style baseline and by hand-tuned kernels.
ContractionPath chain_path(const Kernel& kernel,
                           std::vector<int> dense_order = {});

}  // namespace spttn
