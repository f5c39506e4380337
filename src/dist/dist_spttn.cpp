#include "dist/dist_spttn.hpp"

#include <algorithm>

#include "analysis/plan_verifier.hpp"
#include "exec/executor.hpp"
#include "serve/kernel_cache.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace spttn {

CommBreakdown DistResult::breakdown(CollectiveKind kind) const {
  CommBreakdown b;
  for (const CommEvent& ev : events) {
    if (ev.kind != kind) continue;
    ++b.count;
    b.bytes += ev.bytes;
    b.seconds += ev.seconds;
  }
  return b;
}

DistSpttn::DistSpttn(const BoundKernel& bound, int ranks)
    : bound_(&bound), ranks_(ranks) {
  SPTTN_CHECK_MSG(ranks >= 1, "rank count must be positive, got " << ranks);
  SPTTN_CHECK_MSG(bound.coo != nullptr, "bound kernel has no sparse tensor");
  const CooTensor& coo = *bound.coo;
  SPTTN_CHECK_MSG(coo.is_sorted(), "sparse tensor must be sort_dedup()ed");
  grid_ = ProcGrid::make(ranks, coo.dims());

  local_coo_.assign(static_cast<std::size_t>(ranks), CooTensor(coo.dims()));
  entry_map_.assign(static_cast<std::size_t>(ranks), {});
  for (std::int64_t e = 0; e < coo.nnz(); ++e) {
    const auto owner = static_cast<std::size_t>(grid_.owner_of(coo.coord(e)));
    local_coo_[owner].push_back(coo.coord(e), coo.value(e));
    entry_map_[owner].push_back(e);
  }
  local_nnz_.resize(static_cast<std::size_t>(ranks));
  for (std::size_t r = 0; r < local_coo_.size(); ++r) {
    // Entries arrive in global sorted order, so sorting is an (idempotent)
    // flag flip that keeps entry_map_ aligned with the CSF value order.
    local_coo_[r].sort_dedup();
    local_nnz_[r] = local_coo_[r].nnz();
  }
}

DistResult DistSpttn::run(CommBackend& comm, const PlannerOptions& options,
                          DenseTensor* dense_out,
                          std::span<double> sparse_out,
                          int local_threads, bool concurrent_ranks) const {
  SPTTN_CHECK_MSG(comm.ranks() == ranks_,
                  "backend built for " << comm.ranks() << " ranks, runtime "
                                       << "partitioned for " << ranks_);
  const Kernel& kernel = bound_->kernel;
  const bool sparse_output = kernel.output_is_sparse();

  DistResult res;
  res.ranks = ranks_;
  res.grid = grid_;
  res.backend = comm.name();
  res.modeled = comm.modeled();
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
  // execute the globally-planned nest on their local partitions, whose
  // structure fingerprints differ from the global tensor the plan was
  // derived from.
  verify_plan_or_throw(kernel, plan, options, &bound_->stats);
  FusedExecutor exec(kernel, plan.path, plan.order);

  if (sparse_output && !sparse_out.empty()) {
    SPTTN_CHECK_MSG(
        static_cast<std::int64_t>(sparse_out.size()) == bound_->coo->nnz(),
        "sparse output span size " << sparse_out.size()
                                   << " != nnz " << bound_->coo->nnz());
    std::fill(sparse_out.begin(), sparse_out.end(), 0.0);
  }

  comm.begin_run();

  // Allgather every dense factor up front so each rank can index it by
  // arbitrary local coordinates: ModeledComm charges the model and ranks
  // read the original, real transports hand each rank its own replica of
  // the gathered payload. On a single rank factors are already local and
  // no collective is issued (matching the historical charging).
  std::vector<int> slot_of(bound_->dense.size(), -1);
  if (ranks_ > 1) {
    for (std::size_t i = 0; i < bound_->dense.size(); ++i) {
      if (bound_->dense[i] == nullptr) continue;
      slot_of[i] = comm.allgather(*bound_->dense[i]);
    }
  }

  // SPMD compute: every rank executes the same nest on its local CSF into
  // a rank-private partial (the value a real rank holds before the closing
  // collective). Rank scheduling belongs to the backend; results cannot
  // depend on it because the backend's all-reduce folds the partials in
  // ascending rank order — the fold order, not the execution order, fixes
  // every output bit. Each rank's wall-clock is measured around its own
  // local run either way (honest measurement; on an oversubscribed machine
  // concurrent ranks time-share cores, so use concurrent_ranks = false for
  // timing-faithful rows).
  std::vector<DenseTensor> rank_dense(
      sparse_output ? 0 : static_cast<std::size_t>(ranks_));
  const auto run_rank = [&](std::int64_t r) {
    const auto ur = static_cast<std::size_t>(r);
    const CooTensor& local = local_coo_[ur];
    if (local.nnz() == 0) return;
    const CsfTensor csf(local);
    ExecArgs args;
    args.sparse = &csf;
    args.dense.assign(bound_->dense.size(), nullptr);
    for (std::size_t i = 0; i < bound_->dense.size(); ++i) {
      args.dense[i] = slot_of[i] >= 0
                          ? &comm.gathered(static_cast<int>(r), slot_of[i])
                          : bound_->dense[i];
    }
    args.num_threads = local_threads;
    std::vector<double> local_vals;  // this rank's sparse pattern values
    if (sparse_output) {
      local_vals.assign(static_cast<std::size_t>(local.nnz()), 0.0);
      args.out_sparse = local_vals;
    } else {
      rank_dense[ur] = make_output(*bound_);
      args.out_dense = &rank_dense[ur];
    }
    Timer t;
    exec.execute(args);
    res.local_seconds[ur] = t.seconds();
    // Sparse outputs scatter straight to the owner entries — disjoint per
    // rank (entry_map_ partitions the nonzeros), so the scatter is safe
    // and bit-identical under concurrent ranks, and the rank-local buffer
    // dies here instead of retaining O(global nnz) until a merge.
    if (sparse_output && !sparse_out.empty()) {
      const auto& map = entry_map_[ur];
      for (std::size_t e = 0; e < local_vals.size(); ++e) {
        sparse_out[static_cast<std::size_t>(map[e])] = local_vals[e];
      }
    }
  };
  comm.run_ranks(concurrent_ranks, run_rank);

  // Closing collective: dense outputs all-reduce the rank partials
  // (ascending-rank element-wise fold, bit-deterministic per the backend
  // contract). Sparse outputs stay with their owners and need no
  // reduction.
  if (!sparse_output) {
    DenseTensor reduced = make_output(*bound_);
    std::vector<const DenseTensor*> partials(
        static_cast<std::size_t>(ranks_), nullptr);
    for (int r = 0; r < ranks_; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      if (local_nnz_[ur] > 0) partials[ur] = &rank_dense[ur];
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
  }

  const std::int64_t total = bound_->coo->nnz();
  if (total > 0) {
    const std::int64_t max_nnz =
        *std::max_element(local_nnz_.begin(), local_nnz_.end());
    res.imbalance = static_cast<double>(max_nnz) *
                    static_cast<double>(ranks_) / static_cast<double>(total);
  }
  return res;
}

}  // namespace spttn
