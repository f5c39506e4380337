#include "analysis/kernel_suite.hpp"

#include <cstdio>
#include <cstring>

#include "tensor/generate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace spttn {

std::int64_t SuiteKernel::dim_of(const std::string& index_name) const {
  for (const auto& [n, d] : dims) {
    if (n == index_name) return d;
  }
  return -1;
}

std::vector<std::int64_t> SuiteKernel::sparse_dims() const {
  const Kernel k = Kernel::parse(expr);
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(k.sparse_ref().order()));
  for (int id : k.sparse_ref().idx) {
    const std::int64_t d = dim_of(k.index_name(id));
    SPTTN_CHECK_MSG(d > 0, "suite entry '" << name << "' misses extent for "
                                           << k.index_name(id));
    out.push_back(d);
  }
  return out;
}

const std::vector<SuiteKernel>& paper_kernel_suite() {
  static const std::vector<SuiteKernel> suite = {
      {"mttkrp3", "A(i,r) = T(i,j,k)*B(j,r)*C(k,r)",
       {{"i", 9}, {"j", 7}, {"k", 8}, {"r", 5}}, 0.08},
      {"mttkrp4", "A(i,r) = T(i,j,k,l)*B(j,r)*C(k,r)*D(l,r)",
       {{"i", 6}, {"j", 5}, {"k", 4}, {"l", 5}, {"r", 4}}, 0.04},
      {"ttmc3", "S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)",
       {{"i", 8}, {"j", 6}, {"k", 7}, {"r", 4}, {"s", 5}}, 0.08},
      {"ttmc4", "S(i,r,s,t) = T(i,j,k,l)*U(j,r)*V(k,s)*W(l,t)",
       {{"i", 5}, {"j", 4}, {"k", 5}, {"l", 4}, {"r", 3}, {"s", 3}, {"t", 3}},
       0.05},
      {"tttp3", "S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)",
       {{"i", 8}, {"j", 7}, {"k", 6}, {"r", 5}}, 0.08},
      {"allmode_ttmc3", "S(r,s,u) = T(i,j,k)*U(i,r)*V(j,s)*W(k,u)",
       {{"i", 7}, {"j", 6}, {"k", 5}, {"r", 4}, {"s", 3}, {"u", 4}}, 0.08},
      {"tttc4", "Z(e,n) = T(i,j,k,n)*A(i,a)*B(a,j,b)*C(b,k,e)",
       {{"i", 5}, {"j", 4}, {"k", 4}, {"n", 3}, {"a", 3}, {"b", 3}, {"e", 3}},
       0.06},
      {"spmv_like", "y(i) = T(i,j)*x(j)", {{"i", 16}, {"j", 12}}, 0.2},
      {"sddmm_like", "S(i,j) = T(i,j)*U(i,r)*V(j,r)",
       {{"i", 10}, {"j", 9}, {"r", 6}}, 0.15},
      {"shared_factor", "A(i,r) = T(i,j,k)*B(j,r)*C(j,k,r)",
       {{"i", 6}, {"j", 5}, {"k", 6}, {"r", 4}}, 0.08},
  };
  return suite;
}

std::unique_ptr<SuiteInstance> make_suite_instance(const SuiteKernel& sk,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  auto out = std::make_unique<SuiteInstance>();
  const Kernel k = Kernel::parse(sk.expr);
  const auto sdims = sk.sparse_dims();
  double space = 1;
  for (auto d : sdims) space *= static_cast<double>(d);
  const auto nnz = static_cast<std::int64_t>(space * sk.sparsity) + 1;
  out->sparse = random_coo(sdims, nnz, rng);
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i == k.sparse_input()) continue;
    std::vector<std::int64_t> fdims;
    for (int id : k.input(i).idx) {
      const std::int64_t d = sk.dim_of(k.index_name(id));
      SPTTN_CHECK_MSG(d > 0, "suite entry '" << sk.name
                                             << "' misses extent for "
                                             << k.index_name(id));
      fdims.push_back(d);
    }
    out->factors.push_back(random_dense(fdims, rng));
  }
  std::vector<const DenseTensor*> ptrs;
  ptrs.reserve(out->factors.size());
  for (const auto& f : out->factors) ptrs.push_back(&f);
  out->bound = spttn::bind(sk.expr, out->sparse, ptrs);
  return out;
}

const std::vector<LintOptionSet>& lint_option_sets() {
  static const std::vector<LintOptionSet> sets = [] {
    std::vector<LintOptionSet> s;
    s.push_back({"default", {}});
    {
      PlannerOptions o;
      // A tighter bound that every suite kernel meets without relaxing;
      // bound 0 is where relaxation happens (see the verifier tests).
      o.buffer_dim_bound = 1;
      s.push_back({"bound1", o});
    }
    {
      PlannerOptions o;
      o.cost = CostKind::kCacheMiss;
      s.push_back({"cache-miss", o});
    }
    {
      PlannerOptions o;
      o.cost = CostKind::kMaxBufferSize;
      s.push_back({"max-buffer-size", o});
    }
    {
      PlannerOptions o;
      o.cost = CostKind::kMaxBufferDim;
      s.push_back({"max-buffer-dim", o});
    }
    {
      // A node budget that stops the search on the 4-input kernels, so
      // the budget-exhausted path (the lower bound, the gap, the verifier
      // gate) is pinned by goldens.
      PlannerOptions o;
      o.budget.max_nodes = 8;
      s.push_back({"budget", o});
    }
    return s;
  }();
  return sets;
}

const std::vector<SuiteKernel>& golden_networks() {
  static const std::vector<SuiteKernel> nets = [] {
    const auto to_suite = [](const GeneratedNetwork& net) {
      return SuiteKernel{net.name, net.expr, net.dims, 0.05};
    };
    Rng r7(1070);
    Rng r8(1082);
    return std::vector<SuiteKernel>{
        to_suite(random_network(7, 3, 3, r7)),
        to_suite(random_network(8, 3, 3, r8)),
        to_suite(tensor_train_network(8, 3, 2)),
    };
  }();
  return nets;
}

const LintOptionSet& golden_network_options() {
  static const LintOptionSet set = [] {
    PlannerOptions o;
    o.budget.max_nodes = 128;
    return LintOptionSet{"budget-128", o};
  }();
  return set;
}

std::string golden_output_line(const std::string& kernel,
                               const std::string& option_set, int threads,
                               std::span<const double> out) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const double v : out) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof bytes);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return kernel + " " + option_set + " " + std::to_string(threads) + " " +
         std::to_string(out.size()) + " " + hex;
}

}  // namespace spttn
