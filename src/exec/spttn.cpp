#include "exec/spttn.hpp"

#include <algorithm>

#include "core/enumerate.hpp"
#include "core/order_dp.hpp"
#include "serve/kernel_cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace spttn {

Kernel bind_kernel_dims(const std::string& expr, const CooTensor& sparse,
                        const std::vector<const DenseTensor*>& dense_factors,
                        std::vector<const DenseTensor*>* slots,
                        const std::string& sparse_name) {
  Kernel k = Kernel::parse(expr, sparse_name);

  // Bind sparse dims.
  SPTTN_CHECK_MSG(sparse.order() == k.sparse_ref().order(),
                  "sparse tensor order mismatch for " << k.sparse_ref().name);
  for (int l = 0; l < sparse.order(); ++l) {
    k.set_index_dim(k.sparse_ref().idx[static_cast<std::size_t>(l)],
                    sparse.dim(l));
  }
  // Bind dense dims in order of appearance.
  if (slots != nullptr) {
    slots->assign(static_cast<std::size_t>(k.num_inputs()), nullptr);
  }
  std::size_t next = 0;
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i == k.sparse_input()) continue;
    SPTTN_CHECK_MSG(next < dense_factors.size(),
                    "missing dense tensor for input " << k.input(i).name);
    const DenseTensor* d = dense_factors[next++];
    SPTTN_CHECK_MSG(d != nullptr, "null dense factor");
    const TensorRef& ref = k.input(i);
    SPTTN_CHECK_MSG(d->order() == ref.order(),
                    "dense tensor order mismatch for " << ref.name);
    for (int m = 0; m < ref.order(); ++m) {
      k.set_index_dim(ref.idx[static_cast<std::size_t>(m)], d->dim(m));
    }
    if (slots != nullptr) (*slots)[static_cast<std::size_t>(i)] = d;
  }
  SPTTN_CHECK_MSG(next == dense_factors.size(),
                  "more dense tensors than kernel inputs");
  SPTTN_CHECK_MSG(k.dims_bound(), "kernel has unbound indices");
  return k;
}

BoundKernel bind(const std::string& expr, const CooTensor& sparse,
                 std::vector<const DenseTensor*> dense_factors,
                 const std::string& sparse_name) {
  BoundKernel bound;
  bound.kernel = bind_kernel_dims(expr, sparse, dense_factors, &bound.dense,
                                  sparse_name);
  bound.coo = &sparse;
  SPTTN_CHECK_MSG(sparse.is_sorted(), "sparse tensor must be sort_dedup()ed");
  bound.csf = CsfTensor(sparse);
  bound.stats = SparsityStats::from_coo(sparse);
  return bound;
}

Plan plan_kernel(const BoundKernel& bound, const PlannerOptions& options) {
  return make_plan(bound.kernel, bound.stats, options);
}

void run_plan(const BoundKernel& bound, const Plan& plan,
              DenseTensor* out_dense, std::span<double> out_sparse,
              int num_threads) {
  FusedExecutor exec(bound.kernel, plan);
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;
  args.out_dense = out_dense;
  args.out_sparse = out_sparse;
  args.num_threads = num_threads;
  exec.execute(args);
}

DenseTensor make_output(const BoundKernel& bound) {
  SPTTN_CHECK_MSG(!bound.kernel.output_is_sparse(),
                  "kernel output shares the sparse pattern; use a value "
                  "span instead");
  std::vector<std::int64_t> dims;
  for (int id : bound.kernel.output().idx) {
    dims.push_back(bound.kernel.index_dim(id));
  }
  return DenseTensor(dims);
}

CooTensor permute_sparse_modes(const CooTensor& coo,
                               const std::vector<int>& mode_order) {
  SPTTN_CHECK(static_cast<int>(mode_order.size()) == coo.order());
  std::vector<std::int64_t> dims(mode_order.size());
  for (std::size_t l = 0; l < mode_order.size(); ++l) {
    dims[l] = coo.dim(mode_order[l]);
  }
  CooTensor out(dims);
  std::vector<std::int64_t> c(mode_order.size());
  for (std::int64_t e = 0; e < coo.nnz(); ++e) {
    const auto src = coo.coord(e);
    for (std::size_t l = 0; l < mode_order.size(); ++l) {
      c[l] = src[static_cast<std::size_t>(mode_order[l])];
    }
    out.push_back(c, coo.value(e));
  }
  out.sort_dedup();
  return out;
}

std::string rewrite_expr_with_csf_order(const std::string& expr,
                                        const std::vector<int>& mode_order,
                                        const std::string& sparse_name) {
  const Kernel k = Kernel::parse(expr, sparse_name);
  const TensorRef& sref = k.sparse_ref();
  SPTTN_CHECK(mode_order.size() == sref.idx.size());
  // Re-render the kernel with the sparse ref's index list permuted.
  const auto render = [&](const TensorRef& ref, bool permute) {
    std::string s = ref.name + "(";
    for (std::size_t m = 0; m < ref.idx.size(); ++m) {
      if (m) s += ",";
      const int id =
          permute ? ref.idx[static_cast<std::size_t>(mode_order[m])]
                  : ref.idx[m];
      s += k.index_name(id);
    }
    return s + ")";
  };
  std::string s = render(k.output(), false) + " = ";
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i) s += " * ";
    s += render(k.input(i), i == k.sparse_input());
  }
  return s;
}

CsfSearchResult search_csf_orders(const std::string& expr,
                                  const CooTensor& sparse,
                                  std::vector<const DenseTensor*> dense,
                                  const PlannerOptions& options,
                                  const std::string& sparse_name) {
  std::vector<int> perm(static_cast<std::size_t>(sparse.order()));
  for (std::size_t l = 0; l < perm.size(); ++l) perm[l] = static_cast<int>(l);
  std::vector<CsfSearchResult> orders;
  std::vector<double> flops;
  do {
    const std::string rewritten =
        rewrite_expr_with_csf_order(expr, perm, sparse_name);
    const CooTensor permuted = permute_sparse_modes(sparse, perm);
    BoundKernel bound = bind(rewritten, permuted, dense, sparse_name);
    try {
      const Plan plan = make_plan(bound.kernel, bound.stats, options);
      orders.push_back({perm, plan.cost, rewritten});
      flops.push_back(plan.flops);
    } catch (const Error&) {
      // No executable nest under this order; skip.
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  SPTTN_CHECK_MSG(!orders.empty(),
                  "no CSF order admits an executable loop nest");
  // make_plan's rule across orders: only orders within kFlopGroupTolerance
  // of the cheapest order's flops compete on cost; the first in
  // permutation order wins ties.
  const double min_flops = *std::min_element(flops.begin(), flops.end());
  std::size_t best = orders.size();
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (flops[i] > min_flops * kFlopGroupTolerance) continue;
    if (best == orders.size() || orders[i].cost < orders[best].cost) best = i;
  }
  return orders[best];
}

AutotuneResult autotune_kernel(const BoundKernel& bound,
                               const PlannerOptions& options, int max_paths,
                               int sampled, int reps, std::uint64_t seed,
                               KernelCache* cache) {
  AutotuneResult result;
  const Kernel& kernel = bound.kernel;
  const auto paths = executable_paths(kernel, bound.stats);
  SPTTN_CHECK(!paths.empty());
  const std::unique_ptr<TreeCost> cost = make_cost_model(options, &bound.stats);
  Rng rng(seed);

  // Prepare one output holder reused across candidates.
  DenseTensor out_dense;
  std::vector<double> out_sparse;
  if (kernel.output_is_sparse()) {
    out_sparse.assign(static_cast<std::size_t>(bound.csf.nnz()), 0.0);
  } else {
    out_dense = make_output(bound);
  }

  const auto measure = [&](const ContractionPath& path,
                           const LoopOrder& order) {
    FusedExecutor exec(kernel, path, order);
    ExecArgs args;
    args.sparse = &bound.csf;
    args.dense = bound.dense;
    args.out_dense = kernel.output_is_sparse() ? nullptr : &out_dense;
    args.out_sparse = out_sparse;
    double best_s = 0;
    for (int r = 0; r < reps + 1; ++r) {
      Timer t;
      exec.execute(args);
      const double s = t.seconds();
      if (r == 0 || s < best_s) best_s = s;
    }
    return best_s;
  };

  bool have = false;
  int path_count = 0;
  for (const auto& path : paths) {
    if (++path_count > max_paths) break;
    DpOptions dopts;
    dopts.restrict_csf_order = options.restrict_csf_order;
    const DpResult dp = optimal_order(kernel, path, *cost, dopts);
    std::vector<LoopOrder> candidates;
    if (dp.feasible) candidates.push_back(dp.best);
    if (dp.has_second) candidates.push_back(dp.second);
    EnumerateOptions eopts;
    eopts.restrict_csf_order = options.restrict_csf_order;
    for (auto& order :
         sample_orders(kernel, path, eopts,
                       static_cast<std::size_t>(sampled), rng)) {
      candidates.push_back(std::move(order));
    }
    for (const auto& order : candidates) {
      double seconds = 0;
      try {
        seconds = measure(path, order);
      } catch (const Error&) {
        continue;  // order violates the sparse term's CSF requirement
      }
      ++result.candidates;
      if (!have || seconds < result.best_seconds) {
        have = true;
        result.best_seconds = seconds;
        result.best.path = path;
        result.best.order = order;
        result.best.cost = evaluate_cost(kernel, path, order, *cost);
        result.best.flops = path_flops(kernel, path, bound.stats);
      }
    }
  }
  SPTTN_CHECK_MSG(have, "autotuner found no runnable candidate");
  result.best.tree = LoopTree::build(kernel, result.best.path,
                                     result.best.order);
  result.best.sparsity_fingerprint = bound.stats.fingerprint();
  if (cache != nullptr) {
    // Record the measured winner so cache-aware planning serves it from
    // now on, even where the cost model would have chosen differently.
    cache->put(make_signature(kernel, bound.stats, options), kernel,
               result.best);
  }
  return result;
}

}  // namespace spttn
