#include "exec/spttn.hpp"

#include "util/error.hpp"

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

}  // namespace spttn
