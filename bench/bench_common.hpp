// Shared harness for the paper-reproduction benchmarks: framework runners
// (SpTTN-Cyclops, TACO-style, SparseLNR-style, CTF-style, SPLATT-style),
// problem construction, and timing.
//
// Every bench binary prints a table whose rows mirror one figure or table
// of the paper; EXPERIMENTS.md maps binaries to figures and records
// paper-vs-measured outcomes.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "exec/pairwise.hpp"
#include "exec/reference.hpp"
#include "exec/schedules.hpp"
#include "exec/specialized.hpp"
#include "exec/spttn.hpp"
#include "exec/unfactorized.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace spttn::bench {

/// A bound problem plus owned tensors.
struct Problem {
  CooTensor sparse;
  std::vector<DenseTensor> factors;
  BoundKernel bound;

  const Kernel& kernel() const { return bound.kernel; }
};

/// Build a problem for `expr` on the given sparse tensor; dense factors are
/// sized by `dense_dims` lookup (name of index -> extent) and filled
/// randomly.
inline std::unique_ptr<Problem> make_problem(
    const std::string& expr, CooTensor sparse,
    const std::vector<std::pair<std::string, std::int64_t>>& dense_dims,
    Rng& rng) {
  auto p = std::make_unique<Problem>();
  p->sparse = std::move(sparse);
  Kernel k = Kernel::parse(expr);
  const auto dim_of = [&](int id) -> std::int64_t {
    const int lvl = k.csf_level(id);
    if (lvl >= 0) return p->sparse.dim(lvl);
    for (const auto& [n, d] : dense_dims) {
      if (n == k.index_name(id)) return d;
    }
    SPTTN_CHECK_MSG(false, "no extent for index " << k.index_name(id));
    return -1;
  };
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i == k.sparse_input()) continue;
    std::vector<std::int64_t> dims;
    for (int id : k.input(i).idx) dims.push_back(dim_of(id));
    p->factors.push_back(random_dense(dims, rng));
  }
  std::vector<const DenseTensor*> ptrs;
  for (const auto& f : p->factors) ptrs.push_back(&f);
  p->bound = spttn::bind(expr, p->sparse, ptrs);
  return p;
}

/// Outcome of one framework run.
struct RunResult {
  bool ok = false;
  double seconds = 0;
  std::string note;

  std::string cell() const {
    if (!ok) return note.empty() ? std::string("-") : note;
    return strfmt("%.4f", seconds);
  }
};

/// Median-of-reps timing of fn() with one warmup.
template <typename Fn>
double time_median(Fn&& fn, int reps) {
  const Summary s = time_fn(
      [&] {
        Timer t;
        fn();
        return t.seconds();
      },
      reps, /*warmup=*/1);
  return s.median;
}

/// Allocate output holders for a problem.
struct Output {
  DenseTensor dense;
  std::vector<double> sparse_vals;

  static Output make(const Problem& p) {
    Output o;
    if (p.kernel().output_is_sparse()) {
      o.sparse_vals.assign(static_cast<std::size_t>(p.sparse.nnz()), 0.0);
    } else {
      o.dense = make_output(p.bound);
    }
    return o;
  }

  /// The output's values, dense or sparse.
  std::span<const double> values() const {
    if (!sparse_vals.empty()) return sparse_vals;
    return {dense.data(), static_cast<std::size_t>(dense.size())};
  }
};

/// max |a - b| / max |b| (0 when b is all zero and a equals it).
inline double rel_max_diff(std::span<const double> a,
                           std::span<const double> b) {
  double diff = 0;
  double scale = 0;
  for (std::size_t e = 0; e < b.size(); ++e) {
    diff = std::max(diff, std::fabs(a[e] - b[e]));
    scale = std::max(scale, std::fabs(b[e]));
  }
  return scale > 0 ? diff / scale : diff;
}

/// SpTTN-Cyclops: plan (excluded from timing, reported separately) + fused
/// execution. When `out` is set, the last execution's output is left there.
inline RunResult run_spttn(const Problem& p, int reps,
                           const PlannerOptions& options = {},
                           Plan* plan_out = nullptr, Output* out = nullptr) {
  RunResult r;
  try {
    const Plan plan = plan_kernel(p.bound, options);
    if (plan_out != nullptr) *plan_out = plan;
    FusedExecutor exec(p.kernel(), plan);
    Output local;
    Output& o = out != nullptr ? *out : local;
    o = Output::make(p);
    ExecArgs args;
    args.sparse = &p.bound.csf;
    args.dense = p.bound.dense;
    args.out_dense = o.sparse_vals.empty() ? &o.dense : nullptr;
    args.out_sparse = o.sparse_vals;
    r.seconds = time_median([&] { exec.execute(args); }, reps);
    r.ok = true;
  } catch (const Error& e) {
    r.note = "error";
  }
  return r;
}

/// TACO-style unfactorized schedule.
inline RunResult run_taco_unfactorized(const Problem& p, int reps) {
  RunResult r;
  try {
    UnfactorizedExecutor exec(p.kernel());
    Output o = Output::make(p);
    r.seconds = time_median(
        [&] {
          exec.execute(p.bound.csf, p.bound.dense,
                       o.sparse_vals.empty() ? &o.dense : nullptr,
                       o.sparse_vals);
        },
        reps);
    r.ok = true;
  } catch (const Error&) {
    r.note = "error";
  }
  return r;
}

/// SparseLNR-style partially fused schedule on the shared fused executor.
inline RunResult run_sparselnr(const Problem& p, int reps) {
  RunResult r;
  try {
    const auto [path, order] = sparselnr_schedule(p.kernel());
    FusedExecutor exec(p.kernel(), path, order);
    Output o = Output::make(p);
    ExecArgs args;
    args.sparse = &p.bound.csf;
    args.dense = p.bound.dense;
    args.out_dense = o.sparse_vals.empty() ? &o.dense : nullptr;
    args.out_sparse = o.sparse_vals;
    r.seconds = time_median([&] { exec.execute(args); }, reps);
    r.ok = true;
  } catch (const Error&) {
    r.note = "error";
  }
  return r;
}

/// CTF-style pairwise contraction with materialized sparse intermediates.
/// OOM (entry cap) is reported like the paper reports CTF failures.
inline RunResult run_ctf_pairwise(const Problem& p, int reps,
                                  std::int64_t max_entries = 1ll << 26) {
  RunResult r;
  try {
    const ContractionPath path = pairwise_best_path(p.kernel(), p.sparse);
    Output o = Output::make(p);
    r.seconds = time_median(
        [&] {
          pairwise_execute(p.kernel(), path, p.sparse, p.bound.dense,
                           o.sparse_vals.empty() ? &o.dense : nullptr,
                           o.sparse_vals, max_entries);
        },
        reps);
    r.ok = true;
  } catch (const Error&) {
    r.note = "OOM";
  }
  return r;
}

/// SPLATT-style specialized kernels (MTTKRP order 3/4 only).
inline RunResult run_splatt(const Problem& p, int reps) {
  RunResult r;
  const Kernel& k = p.kernel();
  Output o = Output::make(p);
  if (k.sparse_ref().order() == 3 && p.factors.size() == 2) {
    r.seconds = time_median(
        [&] {
          splatt_mttkrp3(p.bound.csf, p.factors[0], p.factors[1], &o.dense);
        },
        reps);
    r.ok = true;
  } else if (k.sparse_ref().order() == 4 && p.factors.size() == 3) {
    r.seconds = time_median(
        [&] {
          splatt_mttkrp4(p.bound.csf, p.factors[0], p.factors[1],
                         p.factors[2], &o.dense);
        },
        reps);
    r.ok = true;
  } else {
    r.note = "n/a";
  }
  return r;
}

/// "Ax" speedup cell of base vs ours.
inline std::string speedup_cell(const RunResult& base, const RunResult& ours) {
  if (!base.ok || !ours.ok || ours.seconds <= 0) return "-";
  return strfmt("%.1fx", base.seconds / ours.seconds);
}

/// MTTKRP / TTMc / TTTP / all-mode TTMc expression helpers (order 3).
inline std::string mttkrp3_expr() {
  return "A(i,r) = T(i,j,k)*B(j,r)*C(k,r)";
}
inline std::string mttkrp4_expr() {
  return "A(i,r) = T(i,j,k,l)*B(j,r)*C(k,r)*D(l,r)";
}
inline std::string ttmc3_expr() {
  return "S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)";
}
inline std::string ttmc4_expr() {
  return "S(i,r,s,t) = T(i,j,k,l)*U(j,r)*V(k,s)*W(l,t)";
}
inline std::string tttp3_expr() {
  return "S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)";
}
inline std::string allmode_ttmc3_expr() {
  return "S(r,s,u) = T(i,j,k)*U(i,r)*V(j,s)*W(k,u)";
}

}  // namespace spttn::bench
