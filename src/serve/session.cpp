#include "serve/session.hpp"

#include <atomic>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace spttn {

struct Session::Impl {
  const CooTensor* coo = nullptr;
  PlannerOptions options;
  KernelCache* cache = nullptr;
  CsfTensor csf;
  SparsityStats stats;
  /// submit()ted executions not yet completed; values() refuses to hand
  /// out a mutable view while this is nonzero.
  std::atomic<std::size_t> in_flight{0};

  struct Prepared {
    std::vector<const DenseTensor*> slots;  // per kernel input; sparse null
    std::shared_ptr<const KernelCache::Entry> entry;
    bool was_cached = false;
  };
  std::vector<Prepared> kernels;
  std::unordered_map<std::string, int> by_expr;

  const Prepared& at(int kernel_id) const {
    SPTTN_CHECK_MSG(kernel_id >= 0 &&
                        kernel_id < static_cast<int>(kernels.size()),
                    "unknown session kernel id " << kernel_id);
    return kernels[static_cast<std::size_t>(kernel_id)];
  }

  void run_with(int kernel_id,
                const std::vector<const DenseTensor*>& dense_factors,
                DenseTensor* out_dense, std::span<double> out_sparse,
                int num_threads) {
    const Prepared& prep = at(kernel_id);
    ExecArgs args;
    args.sparse = &csf;
    args.dense = dense_factors;
    args.out_dense = out_dense;
    args.out_sparse = out_sparse;
    args.num_threads = num_threads;
    prep.entry->exec->execute(args);
  }
};

Session::Session(const CooTensor& sparse, PlannerOptions options,
                 KernelCache* cache)
    : impl_(std::make_shared<Impl>()) {
  SPTTN_CHECK_MSG(sparse.is_sorted(),
                  "session tensor must be sort_dedup()ed");
  impl_->coo = &sparse;
  impl_->options = options;
  impl_->cache = cache != nullptr ? cache : &KernelCache::global();
  impl_->csf = CsfTensor(sparse);
  impl_->stats = SparsityStats::from_coo(sparse);
}

Session::~Session() = default;

int Session::prepare(const std::string& expr,
                     std::vector<const DenseTensor*> dense_factors,
                     const std::string& sparse_name) {
  const auto it = impl_->by_expr.find(expr);
  if (it != impl_->by_expr.end()) return it->second;

  Impl::Prepared prep;
  const Kernel kernel = bind_kernel_dims(expr, *impl_->coo, dense_factors,
                                         &prep.slots, sparse_name);
  prep.entry = impl_->cache->get_or_plan(kernel, impl_->stats, impl_->options,
                                         &prep.was_cached);
  const int id = static_cast<int>(impl_->kernels.size());
  impl_->kernels.push_back(std::move(prep));
  impl_->by_expr.emplace(expr, id);
  return id;
}

void Session::run(int kernel_id, DenseTensor* out_dense,
                  std::span<double> out_sparse, int num_threads) {
  run_with(kernel_id, impl_->at(kernel_id).slots, out_dense, out_sparse,
           num_threads);
}

void Session::run_with(int kernel_id,
                       const std::vector<const DenseTensor*>& dense_factors,
                       DenseTensor* out_dense, std::span<double> out_sparse,
                       int num_threads) {
  impl_->run_with(kernel_id, dense_factors, out_dense, out_sparse,
                  num_threads);
}

TaskHandle Session::submit(int kernel_id, DenseTensor* out_dense,
                           std::span<double> out_sparse) {
  // Resolve the prepared kernel before enqueueing so an unknown id fails
  // at the submit site, not inside a worker.
  (void)impl_->at(kernel_id);
  // The task captures the shared Impl — not the Session — so the bound
  // state stays alive even if the Session is destroyed while the request
  // is still queued or running.
  impl_->in_flight.fetch_add(1, std::memory_order_acq_rel);
  return ThreadPool::global().submit(
      [impl = impl_, kernel_id, out_dense, out_sparse] {
        struct Landed {  // decrement even when the execution throws
          Impl* impl;
          ~Landed() { impl->in_flight.fetch_sub(1, std::memory_order_acq_rel); }
        } landed{impl.get()};
        impl->run_with(kernel_id, impl->at(kernel_id).slots, out_dense,
                       out_sparse, /*num_threads=*/1);
      });
}

DenseTensor Session::make_output(int kernel_id) const {
  const Kernel& k = impl_->at(kernel_id).entry->kernel;
  SPTTN_CHECK_MSG(!k.output_is_sparse(),
                  "kernel output shares the sparse pattern; use a value "
                  "span instead");
  std::vector<std::int64_t> dims;
  for (int id : k.output().idx) dims.push_back(k.index_dim(id));
  return DenseTensor(dims);
}

int Session::num_kernels() const {
  return static_cast<int>(impl_->kernels.size());
}

const Kernel& Session::kernel(int kernel_id) const {
  return impl_->at(kernel_id).entry->kernel;
}

const Plan& Session::plan(int kernel_id) const {
  return impl_->at(kernel_id).entry->plan;
}

bool Session::plan_was_cached(int kernel_id) const {
  return impl_->at(kernel_id).was_cached;
}

std::span<double> Session::values() {
  const std::size_t pending =
      impl_->in_flight.load(std::memory_order_acquire);
  SPTTN_CHECK_MSG(pending == 0,
                  "values() while " << pending
                                    << " submitted execution(s) are in "
                                       "flight: mutating nonzero values "
                                       "would race the executor; wait() on "
                                       "the outstanding handles first");
  return impl_->csf.vals();
}

std::size_t Session::in_flight() const {
  return impl_->in_flight.load(std::memory_order_acquire);
}

const CsfTensor& Session::csf() const { return impl_->csf; }

const SparsityStats& Session::stats() const { return impl_->stats; }

std::uint64_t Session::fingerprint() const {
  return impl_->csf.structure_fingerprint();
}

KernelCache& Session::cache() const { return *impl_->cache; }

}  // namespace spttn
