#include "dist/dist_spttn.hpp"

#include <algorithm>

#include "analysis/plan_verifier.hpp"
#include "exec/executor.hpp"
#include "serve/kernel_cache.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace spttn {

namespace {

/// Whether every output row belongs to the ranks holding its root: the
/// dense output is led by the sparse root index, and the compiled nest
/// writes it only under sparse root loops strided by that index.
bool writes_root_rows(const Kernel& kernel, const FusedExecutor& exec) {
  const std::vector<int>& out = kernel.output().idx;
  if (out.empty() || out.front() != kernel.sparse_ref().idx.front()) {
    return false;
  }
  for (const FusedExecutor::ParallelRegionInfo& region :
       exec.parallel_regions()) {
    if (region.writes_out_dense &&
        !(region.sparse && region.par_safe && region.out_dense_rooted)) {
      return false;
    }
  }
  return true;
}

/// Per kernel input: 1 when a rank reads it only at its own root rows, i.e.
/// it is indexed by the sparse root index and the nest loops over that
/// index only as the CSF root.
std::vector<char> root_local_inputs(const Kernel& kernel,
                                    const FusedExecutor& exec) {
  std::vector<char> local(static_cast<std::size_t>(kernel.num_inputs()), 0);
  const int root = kernel.sparse_ref().idx.front();
  for (const LoopTree::Node& n : exec.tree().nodes()) {
    if (n.index == root && !n.sparse) return local;
  }
  for (int i = 0; i < kernel.num_inputs(); ++i) {
    if (i == kernel.sparse_input()) continue;
    const std::vector<int>& idx = kernel.input(i).idx;
    local[static_cast<std::size_t>(i)] =
        std::find(idx.begin(), idx.end(), root) != idx.end() ? 1 : 0;
  }
  return local;
}

}  // namespace

CommBreakdown DistResult::breakdown(CollectiveKind kind) const {
  CommBreakdown b;
  for (const CommEvent& ev : events) {
    if (ev.kind != kind) continue;
    ++b.count;
    b.bytes += ev.bytes;
    b.seconds += ev.seconds;
    b.model_seconds += ev.model_seconds;
  }
  return b;
}

DistSpttn::DistSpttn(const BoundKernel& bound, int ranks)
    : bound_(&bound), ranks_(ranks) {
  SPTTN_CHECK_MSG(ranks >= 1, "rank count must be positive, got " << ranks);
  SPTTN_CHECK_MSG(bound.coo != nullptr, "bound kernel has no sparse tensor");
  const CooTensor& coo = *bound.coo;
  SPTTN_CHECK_MSG(coo.is_sorted(), "sparse tensor must be sort_dedup()ed");
  const std::int64_t nnz = coo.nnz();
  const CsfTensor& csf = bound.csf;
  SPTTN_CHECK_MSG(csf.nnz() == nnz, "bound CSF holds "
                                        << csf.nnz() << " nonzeros, its "
                                        << "sparse tensor " << nnz);
  // The bound CSF has the identity mode order, so its leaves are the sorted
  // COO entries. Cut c lands on the first level-1 fiber boundary at or past
  // c*nnz/ranks (level-0 nodes when there is no level 1). The same rule
  // over root boundaries lands past the cut exactly when the cut splits a
  // root, the one just before.
  const std::vector<std::int64_t> fibers =
      csf.leaf_offsets(csf.order() > 1 ? 1 : 0);
  const std::vector<std::int64_t> roots = csf.leaf_offsets(0);
  cuts_.assign(static_cast<std::size_t>(ranks) + 1, 0);
  std::vector<std::int64_t> split(static_cast<std::size_t>(ranks) + 1, -1);
  for (int c = 1; c <= ranks; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    cuts_[uc] = fibers[static_cast<std::size_t>(prefix_cut(fibers, c, ranks))];
    const std::int64_t q = prefix_cut(roots, c, ranks);
    if (roots[static_cast<std::size_t>(q)] != cuts_[uc]) split[uc] = q - 1;
  }

  // A split root at either end of a slice is a piece of it; the roots
  // between are the rank's alone. Ranks and their pieces go in ascending
  // order, so pieces_ is sorted by (root, rank).
  const auto root_coord = csf.level_idx(0);
  const auto add_piece = [&](int rank, std::int64_t position,
                             std::int64_t root) {
    const std::int64_t coord = root_coord[static_cast<std::size_t>(root)];
    if (cut_roots_.empty() || cut_roots_.back() != coord) {
      cut_roots_.push_back(coord);
    }
    pieces_.push_back(
        {rank, position, static_cast<std::int64_t>(cut_roots_.size()) - 1});
  };
  slices_.reserve(static_cast<std::size_t>(ranks));
  owned_.assign(static_cast<std::size_t>(ranks), {0, 0});
  for (int r = 0; r < ranks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    slices_.push_back(CsfTensor::slice(coo, cuts_[ur], cuts_[ur + 1]));
    const std::int64_t n = slices_.back().num_nodes(0);
    if (n == 0) continue;
    const bool head = split[ur] >= 0;
    const bool tail = split[ur + 1] >= 0;
    if (head) add_piece(r, 0, split[ur]);
    if (tail && !(head && n == 1)) add_piece(r, n - 1, split[ur + 1]);
    const std::int64_t own_end = tail ? n - 1 : n;
    owned_[ur] = {std::min<std::int64_t>(head ? 1 : 0, own_end), own_end};
  }
}

std::vector<std::int64_t> DistSpttn::local_nnz() const {
  std::vector<std::int64_t> n(static_cast<std::size_t>(ranks_));
  for (std::size_t r = 0; r < n.size(); ++r) n[r] = cuts_[r + 1] - cuts_[r];
  return n;
}

DistResult DistSpttn::run(ShmemComm& comm, const PlannerOptions& options,
                          DenseTensor* dense_out,
                          std::span<double> sparse_out,
                          int local_threads, bool concurrent_ranks) const {
  SPTTN_CHECK_MSG(comm.ranks() == ranks_,
                  "comm built for " << comm.ranks() << " ranks, runtime "
                                       << "partitioned for " << ranks_);
  const Kernel& kernel = bound_->kernel;
  const bool sparse_output = kernel.output_is_sparse();
  const std::int64_t nnz = cuts_.back();
  SPTTN_CHECK_MSG(!sparse_output || dense_out == nullptr,
                  "dense output bound, but the kernel's output is sparse");
  SPTTN_CHECK_MSG(sparse_output || sparse_out.empty(),
                  "sparse output bound, but the kernel's output is dense");
  SPTTN_CHECK_MSG(sparse_out.empty() ||
                      static_cast<std::int64_t>(sparse_out.size()) == nnz,
                  "sparse output span size " << sparse_out.size()
                                             << " != nnz " << nnz);

  DistResult res;
  res.ranks = ranks_;
  res.local_seconds.assign(static_cast<std::size_t>(ranks_), 0.0);

  // One cached plan serves every rank (SPMD: all ranks run the same nest),
  // and — through the process-wide cache — every repeated run over the
  // same bound tensor (rank-count sweeps, iterative drivers) skips the
  // planner search after the first.
  const Plan plan = plan_kernel(*bound_, options, KernelCache::global());

  // Verify the shared plan once up front so a corrupt cached plan fails
  // loudly here rather than as racing writes inside a rank's partial, then
  // compile the nest once for every rank (execute() serves concurrent
  // callers). Raw (path, order) construction: SPMD ranks intentionally
  // execute the globally-planned nest on their slices, whose structure
  // fingerprints differ from the global tensor the plan was derived from.
  verify_plan_or_throw(kernel, plan, options, &bound_->stats);
  FusedExecutor exec(kernel, plan.path, plan.order);
  const bool in_place = !sparse_output && writes_root_rows(kernel, exec);

  // A discarded sparse output still needs somewhere for the ranks to write.
  std::vector<double> discarded;
  if (sparse_output && sparse_out.empty()) {
    discarded.resize(static_cast<std::size_t>(nnz));
    sparse_out = discarded;
  }

  // The in-place output: zeroed once, the caller's when bound.
  DenseTensor run_out;
  DenseTensor* out = nullptr;
  if (in_place) {
    out = dense_out != nullptr ? dense_out : &run_out;
    std::vector<std::int64_t> dims;
    for (int id : kernel.output().idx) dims.push_back(kernel.index_dim(id));
    if (out->dims() == dims) {
      out->zero();
    } else {
      *out = DenseTensor(std::move(dims));
    }
  }

  comm.begin_run();

  // Allgather every dense factor up front so each rank can index it by
  // arbitrary local coordinates; each rank reads its own replica of the
  // gathered payload. A factor read only at the rank's own root rows stays
  // in place. On a single rank factors are already local and no collective
  // is issued.
  std::vector<int> slot_of(bound_->dense.size(), -1);
  if (ranks_ > 1) {
    const std::vector<char> local = root_local_inputs(kernel, exec);
    for (std::size_t i = 0; i < bound_->dense.size(); ++i) {
      if (bound_->dense[i] == nullptr || local[i]) continue;
      slot_of[i] = comm.allgather(*bound_->dense[i]);
    }
  }
  const auto rank_args = [&](std::int64_t r) {
    ExecArgs args;
    args.sparse = &slices_[static_cast<std::size_t>(r)];
    args.dense.assign(bound_->dense.size(), nullptr);
    for (std::size_t i = 0; i < bound_->dense.size(); ++i) {
      args.dense[i] = slot_of[i] >= 0
                          ? &comm.gathered(static_cast<int>(r), slot_of[i])
                          : bound_->dense[i];
    }
    args.num_threads = local_threads;
    return args;
  };
  // Rank r's slice roots [begin, end), accumulated into the shared output;
  // returns the measured seconds.
  const auto run_roots = [&](std::int64_t r, std::int64_t begin,
                             std::int64_t end) {
    ExecArgs args = rank_args(r);
    args.root_begin = begin;
    args.root_end = end;
    args.out_dense = out;
    args.accumulate = true;
    const Timer t;
    exec.execute(args);
    return t.seconds();
  };

  // SPMD compute: every rank executes the same nest on its slice. In place,
  // a rank runs the roots it holds alone straight into the shared output.
  // Otherwise dense outputs go into a rank-private partial (the value a
  // real rank holds before the closing collective), and sparse outputs
  // straight into the rank's own entry range of sparse_out, disjoint from
  // every other rank's. Results cannot depend on the rank schedule: ranks
  // write disjoint memory, and the all-reduces fold in ascending rank order
  // — the fold order, not the execution order, fixes every output bit.
  // Each rank's wall-clock is measured around its own local runs either
  // way (honest measurement; on an oversubscribed machine concurrent ranks
  // time-share cores, so use concurrent_ranks = false for timing-faithful
  // rows).
  std::vector<DenseTensor> rank_dense(
      sparse_output || in_place ? 0 : static_cast<std::size_t>(ranks_));
  const auto run_rank = [&](std::int64_t r) {
    const auto ur = static_cast<std::size_t>(r);
    if (in_place) {
      const auto [begin, end] = owned_[ur];
      if (begin < end) res.local_seconds[ur] = run_roots(r, begin, end);
      return;
    }
    const CsfTensor& csf = slices_[ur];
    if (csf.nnz() == 0) return;
    ExecArgs args = rank_args(r);
    if (sparse_output) {
      args.out_sparse = sparse_out.subspan(
          static_cast<std::size_t>(cuts_[ur]),
          static_cast<std::size_t>(csf.nnz()));
    } else {
      rank_dense[ur] = make_output(*bound_);
      args.out_dense = &rank_dense[ur];
    }
    Timer t;
    exec.execute(args);
    res.local_seconds[ur] = t.seconds();
  };
  if (concurrent_ranks) {
    ThreadPool::global().parallel_apply(ranks_, run_rank);
  } else {
    for (std::int64_t r = 0; r < ranks_; ++r) run_rank(r);
  }

  // Closing collectives. In place: each share of a cut root is computed
  // from zero in the output's row (still zero: no rank holds it alone),
  // moved to its rank's cut-row partial, and the row cleared for the next
  // share. The all-reduce of the cut rows sums the shares in ascending
  // rank order, the fold order of full-output partials, and the owned rows
  // are logged as an allgather that moves nothing in shared memory. Other
  // dense outputs all-reduce the rank partials (ascending-rank element-wise
  // fold, bit-deterministic). Sparse outputs stay with their owners and
  // need no reduction.
  if (in_place) {
    const auto n_cut = static_cast<std::int64_t>(cut_roots_.size());
    const std::int64_t row_len = n_cut > 0 ? out->size() / out->dim(0) : 0;
    const auto cut_row = [&](std::int64_t k) {
      return out->data() + cut_roots_[static_cast<std::size_t>(k)] * row_len;
    };
    std::vector<DenseTensor> cut_partial(static_cast<std::size_t>(ranks_));
    for (const Piece& piece : pieces_) {
      const auto ur = static_cast<std::size_t>(piece.rank);
      res.local_seconds[ur] +=
          run_roots(piece.rank, piece.position, piece.position + 1);
      if (cut_partial[ur].size() == 0) {
        cut_partial[ur] = DenseTensor({n_cut, row_len});
      }
      double* row = cut_row(piece.row);
      std::copy(row, row + row_len,
                cut_partial[ur].data() + piece.row * row_len);
      std::fill(row, row + row_len, 0.0);
    }
    if (n_cut > 0) {
      DenseTensor cut_sum({n_cut, row_len});
      std::vector<const DenseTensor*> partials(
          static_cast<std::size_t>(ranks_), nullptr);
      for (std::size_t r = 0; r < partials.size(); ++r) {
        if (cut_partial[r].size() > 0) partials[r] = &cut_partial[r];
      }
      comm.allreduce(partials, &cut_sum);
      for (std::int64_t k = 0; k < n_cut; ++k) {
        std::copy(cut_sum.data() + k * row_len,
                  cut_sum.data() + (k + 1) * row_len, cut_row(k));
      }
    }
    comm.allgather_in_place(out->size() *
                            static_cast<std::int64_t>(sizeof(double)));
  } else if (!sparse_output) {
    DenseTensor reduced = make_output(*bound_);
    std::vector<const DenseTensor*> partials(
        static_cast<std::size_t>(ranks_), nullptr);
    for (std::size_t r = 0; r < partials.size(); ++r) {
      if (slices_[r].nnz() > 0) partials[r] = &rank_dense[r];
    }
    comm.allreduce(partials, &reduced);
    if (dense_out != nullptr) *dense_out = std::move(reduced);
  }

  res.max_local_seconds =
      *std::max_element(res.local_seconds.begin(), res.local_seconds.end());

  res.events = comm.events();
  for (const CommEvent& ev : res.events) {
    res.comm_bytes += ev.bytes;
    res.comm_seconds += ev.seconds;
    res.comm_model_seconds += ev.model_seconds;
  }

  if (nnz > 0) {
    std::int64_t max_nnz = 0;
    for (const CsfTensor& csf : slices_) max_nnz = std::max(max_nnz, csf.nnz());
    res.imbalance = static_cast<double>(max_nnz) *
                    static_cast<double>(ranks_) / static_cast<double>(nnz);
  }
  return res;
}

}  // namespace spttn
