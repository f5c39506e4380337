// dist-nell2: the simulated distributed runtime. Each iteration runs two
// DistSpttn::run calls over ShmemComm(16) with sequential rank scheduling
// (timing-faithful per-rank seconds) and one local thread: TTMc-3, a dense
// output that needs the all-reduce, and TTTP-3, a sparse output with no
// reduction. The two kernels use the collective layer in opposite ways.
#include <algorithm>
#include <array>
#include <memory>

#include "dist/dist_spttn.hpp"
#include "exec/specialized.hpp"
#include "serve/kernel_cache.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace spttn::e2e {

namespace {

constexpr int kRanks = 16;
constexpr std::int64_t kTtmcRank = 16;  // a = b
constexpr std::int64_t kTttpRank = 16;
const char* const kKernelNames[] = {"ttmc", "tttp"};

/// One set-up's state. DistSpttn keeps a pointer to its BoundKernel, so the
/// state lives on the heap and never moves.
struct DistState {
  BoundKernel bound[2];
  std::unique_ptr<DistSpttn> dist[2];
  std::unique_ptr<ShmemComm> comm;
  DenseTensor y;
  std::vector<double> s_vals;
};

/// What one DistSpttn::run reports, split the way the per-layer metrics
/// need it.
struct RunSplit {
  double wall = 0;
  double max_local = 0;
  double allgather = 0;
  double allreduce = 0;
  /// Run wall minus the rank seconds minus the collectives.
  double overhead = 0;
  double time = 0;  ///< DistResult::time(): slowest rank plus collectives
  double bytes = 0;
  double imbalance = 0;
};

std::array<RunSplit, 2> iterate(DistState& st, const PlannerOptions& options,
                                Tracer* tr, std::int64_t iter) {
  Scope it(tr, "iter", iter);
  std::array<RunSplit, 2> out;
  for (int k = 0; k < 2; ++k) {
    const bool dense = k == 0;
    DistResult r;
    RunSplit& s = out[static_cast<std::size_t>(k)];
    {
      Scope span(tr, "dist.run");
      const Timer timer;
      r = st.dist[k]->run(*st.comm, options, dense ? &st.y : nullptr,
                          dense ? std::span<double>{} : st.s_vals,
                          /*local_threads=*/1, /*concurrent_ranks=*/false);
      s.wall = timer.seconds();
    }
    double rank_seconds = 0;
    for (double v : r.local_seconds) rank_seconds += v;
    s.max_local = r.max_local_seconds;
    s.allgather = r.breakdown(CollectiveKind::kAllgather).seconds;
    s.allreduce = r.breakdown(CollectiveKind::kAllreduce).seconds;
    s.overhead = s.wall - rank_seconds - r.comm_seconds;
    s.time = r.time();
    s.bytes = static_cast<double>(r.comm_bytes);
    s.imbalance = r.imbalance;
  }
  return out;
}

}  // namespace

void run_dist_nell2(const RunConfig& cfg, Report& report) {
  const double scale = cfg.smoke ? 0.0005 : 0.013;
  Rng rng(input_seed(cfg.seed, 3));
  const CooTensor t = stand_in("nell-2", scale, 3, rng);
  report.input("nell-2", t);
  const std::string exprs[2] = {
      "Y(i0,a,b) = T(i0,i1,i2) * U1(i1,a) * U2(i2,b)", tttp_expr(3)};
  for (const std::string& e : exprs) report.expr(e);
  const DenseTensor u1 = small_factor(t.dim(1), kTtmcRank, rng);
  const DenseTensor u2 = small_factor(t.dim(2), kTtmcRank, rng);
  std::vector<DenseTensor> w;
  for (int m = 0; m < 3; ++m) w.push_back(small_factor(t.dim(m), kTttpRank, rng));
  const std::vector<const DenseTensor*> factors[2] = {{&u1, &u2},
                                                      {&w[0], &w[1], &w[2]}};

  Tracer* tr = cfg.tracer;
  const PlannerOptions options;
  KernelCache& cache = KernelCache::global();  // what DistSpttn::run plans through
  std::unique_ptr<DistState> st;
  std::vector<double> setup;
  for (int rep = 0; rep < setup_reps(cfg); ++rep) {
    st.reset();
    cache.clear();
    const Timer timer;
    Scope s(tr, "setup", 0);
    st = std::make_unique<DistState>();
    for (int k = 0; k < 2; ++k) {
      Scope b(tr, "tensor.bind");
      st->bound[k] = spttn::bind(exprs[k], t, factors[k]);
    }
    for (int k = 0; k < 2; ++k) {
      Scope p(tr, "dist.partition");
      st->dist[k] = std::make_unique<DistSpttn>(st->bound[k], kRanks);
    }
    for (int k = 0; k < 2; ++k) {
      Scope p(tr, "serve.prepare");
      plan_kernel(st->bound[k], options, cache);
    }
    st->comm = std::make_unique<ShmemComm>(kRanks);
    st->s_vals.assign(static_cast<std::size_t>(t.nnz()), 0.0);
    iterate(*st, options, tr, kNotSample);
    const double seconds = timer.seconds();
    if (rep == 0) {
      // The 16-rank outputs against a single-node run of the same plan.
      for (int k = 0; k < 2; ++k) {
        const BoundKernel& b = st->bound[k];
        KernelOutput single(b.kernel, t.nnz());
        run_plan(b, plan_kernel(b, options, cache), single.dense_ptr(),
                 single.sparse, 1);
        const double err = rel_error(
            k == 0 ? st->y.values() : std::span<const double>(st->s_vals),
            single.values());
        report.op(err <= 1e-9, strfmt("dist-nell2 %s 16-rank vs single-node "
                                      "rel err %.3g", kKernelNames[k], err));
        report.detail(strfmt("check.%s.rel_err", kKernelNames[k]), err, "ratio");
      }
    }
    setup.push_back(seconds);
  }

  std::vector<std::array<RunSplit, 2>> splits;
  const LoopSamples loop = timed_loop(cfg, 3, report, [&](std::int64_t i) {
    splits.push_back(iterate(*st, options, iter_tracer(cfg, i), i));
    return splits.back()[0].time + splits.back()[1].time;
  });

  if (tr == nullptr) {
    report_end_to_end(setup, loop, report);
    return;
  }

  // Medians over iterations of per-iteration sums (and per-kernel details).
  const auto med = [&](double RunSplit::*field, int only = -1) {
    std::vector<double> v;
    for (const auto& it : splits) {
      double sum = 0;
      for (int k = 0; k < 2; ++k) {
        if (only < 0 || only == k) sum += it[static_cast<std::size_t>(k)].*field;
      }
      v.push_back(sum);
    }
    return median(v);
  };
  report.metric("dist.max_local_s", med(&RunSplit::max_local), "s");
  report.metric("dist.allgather_s", med(&RunSplit::allgather), "s");
  report.metric("dist.allreduce_s", med(&RunSplit::allreduce), "s");
  report.metric("dist.overhead_s", med(&RunSplit::overhead), "s");
  report.metric("dist.comm_bytes", med(&RunSplit::bytes), "bytes");
  double imbalance = 0;
  for (const auto& it : splits) {
    imbalance = std::max({imbalance, it[0].imbalance, it[1].imbalance});
  }
  report.metric("dist.imbalance", imbalance, "ratio");
  for (int k = 0; k < 2; ++k) {
    const std::string n = kKernelNames[k];
    report.detail("dist.run_s." + n, med(&RunSplit::wall, k), "s");
    report.detail("dist.max_local_s." + n, med(&RunSplit::max_local, k), "s");
    report.detail("dist.allgather_s." + n, med(&RunSplit::allgather, k), "s");
    report.detail("dist.allreduce_s." + n, med(&RunSplit::allreduce, k), "s");
    report.detail("dist.overhead_s." + n, med(&RunSplit::overhead, k), "s");
    report.detail("dist.time_s." + n, med(&RunSplit::time, k), "s");
  }

  std::vector<ProbeKernel> kernels;
  for (int k = 0; k < 2; ++k) {
    const BoundKernel& b = st->bound[k];
    ProbeKernel p;
    p.name = kKernelNames[k];
    p.kernel = b.kernel;
    p.coo = &t;
    p.csf = &b.csf;
    p.slots = b.dense;
    kernels.push_back(std::move(p));
  }
  kernels[0].specialized = [&](DenseTensor* out, std::span<double>) {
    ttmc3_specialized(st->bound[0].csf, u1, u2, out);
  };
  kernels[1].specialized = [&](DenseTensor*, std::span<double> out) {
    tttp3_specialized(st->bound[1].csf, w[0], w[1], w[2], out);
  };
  report.metric("tensor.csf_bytes",
                static_cast<double>(csf_bytes(st->bound[0].csf) +
                                    csf_bytes(st->bound[1].csf)),
                "bytes");
  const std::vector<Plan> plans = decompose_setup(kernels, options, cfg, report);
  probe_exec(kernels, plans, 1, cfg, report);
  report_cache(cache, report);
  report_self(*tr, report);
  report_iteration_split(loop, report);
}

}  // namespace spttn::e2e
