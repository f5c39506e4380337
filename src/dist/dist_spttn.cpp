#include "dist/dist_spttn.hpp"

#include <algorithm>

#include "analysis/plan_verifier.hpp"
#include "exec/executor.hpp"
#include "serve/kernel_cache.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace spttn {

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
  SPTTN_CHECK_MSG(bound.csf.nnz() == nnz,
                  "bound CSF holds " << bound.csf.nnz() << " nonzeros, its "
                                     << "sparse tensor " << nnz);
  // The bound CSF has the identity mode order, so its leaves are the sorted
  // COO entries. Cut at the first level-1 fiber boundary at or past each
  // goal c*nnz/ranks (level-0 nodes when there is no level 1).
  const std::vector<std::int64_t> lb =
      bound.csf.leaf_offsets(bound.csf.order() > 1 ? 1 : 0);
  cuts_.assign(static_cast<std::size_t>(ranks) + 1, 0);
  slices_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const std::int64_t goal = nnz * (r + 1) / ranks;
    const std::int64_t end = *std::lower_bound(lb.begin(), lb.end(), goal);
    cuts_[static_cast<std::size_t>(r) + 1] = end;
    slices_.push_back(
        CsfTensor::slice(coo, cuts_[static_cast<std::size_t>(r)], end));
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

  // A discarded sparse output still needs somewhere for the ranks to write.
  std::vector<double> discarded;
  if (sparse_output && sparse_out.empty()) {
    discarded.resize(static_cast<std::size_t>(nnz));
    sparse_out = discarded;
  }

  comm.begin_run();

  // Allgather every dense factor up front so each rank can index it by
  // arbitrary local coordinates; each rank reads its own replica of the
  // gathered payload. On a single rank factors are already local and no
  // collective is issued.
  std::vector<int> slot_of(bound_->dense.size(), -1);
  if (ranks_ > 1) {
    for (std::size_t i = 0; i < bound_->dense.size(); ++i) {
      if (bound_->dense[i] == nullptr) continue;
      slot_of[i] = comm.allgather(*bound_->dense[i]);
    }
  }

  // SPMD compute: every rank executes the same nest on its slice. Dense
  // outputs go into a rank-private partial (the value a real rank holds
  // before the closing collective); sparse outputs go straight into the
  // rank's own entry range of sparse_out, disjoint from every other rank's.
  // Results cannot depend on the rank schedule because the all-reduce folds
  // the partials in ascending rank order — the fold order, not the
  // execution order, fixes every output bit. Each rank's wall-clock is
  // measured around its own local run either way (honest measurement; on
  // an oversubscribed machine concurrent ranks time-share cores, so use
  // concurrent_ranks = false for timing-faithful rows).
  std::vector<DenseTensor> rank_dense(
      sparse_output ? 0 : static_cast<std::size_t>(ranks_));
  const auto run_rank = [&](std::int64_t r) {
    const auto ur = static_cast<std::size_t>(r);
    const CsfTensor& csf = slices_[ur];
    if (csf.nnz() == 0) return;
    ExecArgs args;
    args.sparse = &csf;
    args.dense.assign(bound_->dense.size(), nullptr);
    for (std::size_t i = 0; i < bound_->dense.size(); ++i) {
      args.dense[i] = slot_of[i] >= 0
                          ? &comm.gathered(static_cast<int>(r), slot_of[i])
                          : bound_->dense[i];
    }
    args.num_threads = local_threads;
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

  // Closing collective: dense outputs all-reduce the rank partials
  // (ascending-rank element-wise fold, bit-deterministic). Sparse outputs
  // stay with their owners and need no reduction.
  if (!sparse_output) {
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
