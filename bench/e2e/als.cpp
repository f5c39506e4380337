// als-nell2: CP-ALS sweeps through one Session, mirroring cp_als
// (apps/decompose.cpp): per mode, an MTTKRP on one lane, then the Gram /
// Hadamard / normal-equations update. After set-up the planner, cache and
// partitioner do nothing; lowered dense-output kernels do the work.
#include <memory>

#include "apps/linalg.hpp"
#include "exec/specialized.hpp"
#include "serve/session.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace spttn::e2e {

namespace {

constexpr int kOrder = 3;

/// One set-up's state: factors, the per-mode slot lists, a private cache
/// (so every set-up plans cold) and the session.
struct Als {
  std::vector<DenseTensor> factors;
  std::vector<std::vector<const DenseTensor*>> slots;
  KernelCache cache;
  std::unique_ptr<Session> session;
  std::vector<int> ids;

  explicit Als(const std::vector<DenseTensor>& init)
      : factors(init), slots(kOrder) {
    for (int mode = 0; mode < kOrder; ++mode) {
      auto& s = slots[static_cast<std::size_t>(mode)];
      s.push_back(nullptr);  // sparse slot
      for (int m = 0; m < kOrder; ++m) {
        if (m != mode) s.push_back(&factors[static_cast<std::size_t>(m)]);
      }
    }
  }
};

using Check = std::function<void(int mode, const DenseTensor& out)>;

/// One sweep; returns the seconds spent in Session::run_with.
double sweep(Als& als, const CooTensor& t, int rank, Tracer* tr,
             std::int64_t iter, const Check& check) {
  Scope it(tr, "iter", iter);
  double kernel_s = 0;
  for (int mode = 0; mode < kOrder; ++mode) {
    const auto um = static_cast<std::size_t>(mode);
    DenseTensor m_out({t.dim(mode), rank});
    {
      Scope s(tr, "serve.run");
      const Timer timer;
      als.session->run_with(als.ids[um], als.slots[um], &m_out);
      kernel_s += timer.seconds();
    }
    if (check) check(mode, m_out);
    Scope s(tr, "apps.dense");
    DenseTensor v;
    bool first = true;
    for (int m = 0; m < kOrder; ++m) {
      if (m == mode) continue;
      const DenseTensor g = gram(als.factors[static_cast<std::size_t>(m)]);
      v = first ? g : hadamard(v, g);
      first = false;
    }
    solve_normal_equations(v, &m_out);
    als.factors[um] = std::move(m_out);
  }
  return kernel_s;
}

}  // namespace

void run_als_nell2(const RunConfig& cfg, Report& report) {
  const double scale = cfg.smoke ? 0.0005 : 0.026;
  const int rank = cfg.smoke ? 8 : 32;
  Rng rng(input_seed(cfg.seed, 1));
  const CooTensor t = stand_in("nell-2", scale, 1, rng);
  report.input("nell-2", t);
  std::vector<std::string> exprs;
  for (int mode = 0; mode < kOrder; ++mode) {
    exprs.push_back(mttkrp_expr(kOrder, mode));
    report.expr(exprs.back());
  }
  std::vector<DenseTensor> init;
  for (int m = 0; m < kOrder; ++m) init.push_back(small_factor(t.dim(m), rank, rng));

  Tracer* tr = cfg.tracer;
  const PlannerOptions options;
  std::unique_ptr<Als> als;
  std::vector<double> setup;
  for (int rep = 0; rep < setup_reps(cfg); ++rep) {
    als.reset();  // release the previous set-up before timing the next
    double check_s = 0;
    const Check check = [&](int mode, const DenseTensor& out) {
      const Timer ct;
      const auto um = static_cast<std::size_t>(mode);
      const auto want = reference_output(als->session->kernel(als->ids[um]),
                                         t, als->slots[um]);
      const double err = rel_error(out.values(), want);
      report.op(err <= 1e-9,
                strfmt("als-nell2 warm-up mttkrp%d rel err %.3g", mode, err));
      report.detail(strfmt("check.mttkrp%d.rel_err", mode), err, "ratio");
      check_s += ct.seconds();
    };
    const Timer timer;
    Scope s(tr, "setup", 0);
    als = std::make_unique<Als>(init);
    {
      Scope b(tr, "tensor.bind");
      als->session = std::make_unique<Session>(t, options, &als->cache);
    }
    for (int mode = 0; mode < kOrder; ++mode) {
      Scope p(tr, "serve.prepare");
      const auto um = static_cast<std::size_t>(mode);
      als->ids.push_back(
          als->session->prepare(exprs[um], factors_of(als->slots[um])));
    }
    sweep(*als, t, rank, tr, kNotSample, rep == 0 ? check : Check{});
    setup.push_back(timer.seconds() - check_s);
  }

  const LoopSamples loop = timed_loop(cfg, 3, report, [&](std::int64_t i) {
    return sweep(*als, t, rank, iter_tracer(cfg, i), i, {});
  });

  if (tr == nullptr) {
    report_end_to_end(setup, loop, report);
    return;
  }

  Session& session = *als->session;
  std::vector<ProbeKernel> kernels;
  for (int mode = 0; mode < kOrder; ++mode) {
    const auto um = static_cast<std::size_t>(mode);
    ProbeKernel k;
    k.name = strfmt("mttkrp%d", mode);
    k.kernel = session.kernel(als->ids[um]);
    k.coo = &t;
    k.csf = &session.csf();
    k.slots = als->slots[um];
    if (mode == 0) {
      k.specialized = [&](DenseTensor* out, std::span<double>) {
        splatt_mttkrp3(session.csf(), als->factors[1], als->factors[2], out);
      };
    }
    kernels.push_back(std::move(k));
  }
  report.metric("tensor.csf_bytes",
                static_cast<double>(csf_bytes(session.csf())), "bytes");
  const std::vector<Plan> plans = decompose_setup(kernels, options, cfg, report);
  probe_exec(kernels, plans, 1, cfg, report);
  report_cache(als->cache, report);
  report_self(*tr, report);
  report_iteration_split(loop, report);
}

}  // namespace spttn::e2e
