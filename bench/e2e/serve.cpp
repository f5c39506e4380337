// serve-churn: request serving over a cache smaller than the working set.
// kClients client threads each issue requests synchronously (a closed loop)
// for the measured seconds, drawn uniformly by a per-client RNG over 24
// signatures: 8 structures ({nell-2, vast-3d, enron, nips} x 2 seeds, about
// 30k nonzeros each) x {MTTKRP mode 0, MTTKRP last mode, TTTP}, sharing one
// 16-entry KernelCache. Misses (evict, plan, verify, compile, insert) mix
// with hits (signature plus probe) and execution is small, so the planner,
// verifier and cache do most of the work. Between requests, each client
// re-runs host_probe() every kProbeEvery; iter_vs_probe divides each
// request by its client's latest probe.
//
// A request is run_plan(bound, cache, ..., 1) spelled as its two public
// calls, KernelCache::get_or_plan then FusedExecutor::execute, so the
// traced run can tell hits from misses and untraced runs make the same calls.
#include <algorithm>
#include <memory>
#include <set>
#include <thread>

#include "exec/specialized.hpp"
#include "serve/kernel_cache.hpp"
#include "tensor/generate.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace spttn::e2e {

namespace {

constexpr int kClients = kLanes;
constexpr std::size_t kCacheCapacity = 16;
constexpr std::int64_t kRank = 16;
/// Every kCheckEvery-th request of a client is compared bitwise against its
/// pair's set-up output.
constexpr std::int64_t kCheckEvery = 100;
const char* const kPresets[] = {"nell-2", "vast-3d", "enron", "nips"};
constexpr int kCopies = 2;

struct Structure {
  std::string name;
  CooTensor t;
  std::vector<DenseTensor> factors;  ///< one (dim x kRank) per mode
};

/// One request signature: a kernel over a structure.
struct Pair {
  std::string name;
  std::string expr;
  const Structure* s = nullptr;
  std::vector<const DenseTensor*> factors;  ///< in order of appearance
  BoundKernel bound;
  std::vector<double> want;  ///< set-up output
};

/// What one client measured.
struct ClientLog {
  /// Per request: start, whole latency, and the FusedExecutor::execute part.
  LoopSamples requests;
  std::vector<double> traced;  ///< traced run: latency of traced requests
  std::vector<double> untraced;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_error;
};

/// The one-lane execution run_plan(bound, cache, ..., 1) makes after its
/// cache probe.
void execute(const KernelCache::Entry& entry, const BoundKernel& bound,
             KernelOutput& out) {
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;
  args.out_dense = out.dense_ptr();
  args.out_sparse = out.sparse;
  args.num_threads = 1;
  entry.exec->execute(args);
}

void client(int c, const RunConfig& cfg, Clock::time_point t0,
            Clock::time_point deadline, std::vector<Pair>& pairs,
            KernelCache& cache, const PlannerOptions& options,
            ClientLog& log) {
  Rng rng(input_seed(cfg.seed, 100 + static_cast<std::uint64_t>(c)));
  std::vector<KernelOutput> outs;  // independent clients own their outputs
  for (const Pair& p : pairs) outs.emplace_back(p.bound.kernel, p.s->t.nnz());
  double probe = host_probe();
  Clock::time_point next_probe = t0 + kProbeEvery + kProbeEvery * c / kClients;
  for (std::int64_t r = 0;; ++r) {
    if (cfg.smoke ? r >= 3 : Clock::now() >= deadline) break;
    if (Clock::now() >= next_probe) {
      probe = host_probe();
      while (next_probe <= Clock::now()) next_probe += kProbeEvery;
    }
    const auto p = static_cast<std::size_t>(rng.next_below(pairs.size()));
    const Pair& pair = pairs[p];
    Tracer* tr = iter_tracer(cfg, r);
    ++log.attempted;
    try {
      Scope req(tr, "request", static_cast<std::int64_t>(c) * 1000000000 + r,
                c);
      const double start =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const Timer timer;
      std::shared_ptr<const KernelCache::Entry> entry;
      {
        Scope s(tr, "serve.resolve", kInherit, c);
        bool was_cached = false;
        entry = cache.get_or_plan(pair.bound, options, &was_cached);
        s.rename(was_cached ? "serve.hit" : "serve.miss");
      }
      const double resolved = timer.seconds();
      {
        Scope s(tr, "exec.run", kInherit, c);
        execute(*entry, pair.bound, outs[p]);
      }
      const double seconds = timer.seconds();
      log.requests.start.push_back(start);
      log.requests.latency.push_back(seconds);
      log.requests.kernel.push_back(seconds - resolved);
      log.requests.probe.push_back(probe);
      (tr != nullptr ? log.traced : log.untraced).push_back(seconds);
      if (r % kCheckEvery == 0 && !bit_equal(outs[p].values(), pair.want)) {
        ++log.failed;
        if (log.first_error.empty()) {
          log.first_error = pair.name + " output differs from its set-up output";
        }
      }
    } catch (const std::exception& e) {
      ++log.failed;
      if (log.first_error.empty()) log.first_error = e.what();
    }
  }
}

}  // namespace

void run_serve_churn(const RunConfig& cfg, Report& report) {
  const double nnz_target = cfg.smoke ? 2000 : 30000;
  std::vector<std::unique_ptr<Structure>> structures;
  for (std::size_t i = 0; i < std::size(kPresets); ++i) {
    for (int j = 0; j < kCopies; ++j) {
      const TensorPreset& preset = find_preset(kPresets[i]);
      const std::uint64_t stream = 10 + kCopies * i + static_cast<std::size_t>(j);
      Rng rng(input_seed(cfg.seed, stream));
      auto s = std::make_unique<Structure>();
      s->name = strfmt("%s.%d", kPresets[i], j);
      s->t = stand_in(preset.name, nnz_target / static_cast<double>(preset.nnz),
                      stream, rng);
      for (int m = 0; m < s->t.order(); ++m) {
        s->factors.push_back(small_factor(s->t.dim(m), kRank, rng));
      }
      report.input(s->name, s->t);
      structures.push_back(std::move(s));
    }
  }
  std::vector<Pair> pairs;
  std::set<std::string> exprs;
  for (const auto& s : structures) {
    const int d = s->t.order();
    for (const int variant : {0, 1, 2}) {
      Pair p;
      p.s = s.get();
      const int mode = variant == 0 ? 0 : d - 1;
      p.name = s->name + (variant == 2 ? ".tttp" : strfmt(".mttkrp%d", mode));
      p.expr = variant == 2 ? tttp_expr(d) : mttkrp_expr(d, mode);
      for (int m = 0; m < d; ++m) {
        if (variant == 2 || m != mode) p.factors.push_back(&s->factors[static_cast<std::size_t>(m)]);
      }
      exprs.insert(p.expr);
      pairs.push_back(std::move(p));
    }
  }
  for (const std::string& e : exprs) report.expr(e);

  Tracer* tr = cfg.tracer;
  const PlannerOptions options;
  std::vector<double> setup;
  for (int rep = 0; rep < setup_reps(cfg); ++rep) {
    for (Pair& p : pairs) p.bound = BoundKernel{};
    const Timer timer;
    Scope s(tr, "setup", 0);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      Scope b(tr, "tensor.bind");
      pairs[i].bound = spttn::bind(pairs[i].expr, pairs[i].s->t, pairs[i].factors);
    }
    setup.push_back(timer.seconds());
  }

  // Set-up outputs: a single-lane run of each pair, checked against the
  // COO reference; requests are later compared to them bit for bit. The
  // cold cache probe here is each pair's first plan (serve.prepare).
  {
    KernelCache scratch(pairs.size());
    Scope s(tr, "setup.outputs", 0);
    for (Pair& p : pairs) {
      std::shared_ptr<const KernelCache::Entry> entry;
      {
        Scope prepare(tr, "serve.prepare");
        entry = scratch.get_or_plan(p.bound, options);
      }
      KernelOutput out(p.bound.kernel, p.s->t.nnz());
      execute(*entry, p.bound, out);
      p.want.assign(out.values().begin(), out.values().end());
      const double err =
          rel_error(p.want, reference_output(p.bound.kernel, p.s->t, p.bound.dense));
      report.op(err <= 1e-9, strfmt("serve-churn %s rel err %.3g",
                                    p.name.c_str(), err));
    }
  }

  KernelCache cache(kCacheCapacity);
  ThreadPool& pool = ThreadPool::global();
  const auto steals0 = pool.steal_count();
  std::vector<ClientLog> logs(kClients);
  for (ClientLog& log : logs) {
    LoopSamples& r = log.requests;
    // No growth inside the measured loop.
    for (auto* v : {&r.start, &r.latency, &r.kernel, &r.probe, &log.traced,
                    &log.untraced}) {
      v->reserve(1 << 16);
    }
  }
  reset_peak_mem();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(cfg.seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(client, c, std::cref(cfg), t0, deadline,
                           std::ref(pairs), std::ref(cache), std::cref(options),
                           std::ref(logs[static_cast<std::size_t>(c)]));
    }
    for (std::thread& t : threads) t.join();
  }
  LoopSamples loop;
  loop.wall = std::chrono::duration<double>(Clock::now() - t0).count();
  const auto steals = static_cast<double>(pool.steal_count() - steals0);

  std::vector<double> traced, untraced;
  for (const ClientLog& log : logs) {
    const LoopSamples& r = log.requests;
    loop.start.insert(loop.start.end(), r.start.begin(), r.start.end());
    loop.latency.insert(loop.latency.end(), r.latency.begin(), r.latency.end());
    loop.kernel.insert(loop.kernel.end(), r.kernel.begin(), r.kernel.end());
    loop.probe.insert(loop.probe.end(), r.probe.begin(), r.probe.end());
    traced.insert(traced.end(), log.traced.begin(), log.traced.end());
    untraced.insert(untraced.end(), log.untraced.begin(), log.untraced.end());
    for (std::int64_t i = 0; i < log.attempted; ++i) {
      report.op(i >= log.failed, log.first_error);
    }
  }

  if (tr == nullptr) {
    report_end_to_end(setup, loop, report);
    report.detail("req_p99_s", quantile(loop.latency, 0.99), "s");
    const KernelCache::Counters counters = cache.counters();
    report.detail("cache.hits", static_cast<double>(counters.hits), "count");
    report.detail("cache.misses", static_cast<double>(counters.misses), "count");
    return;
  }

  std::vector<ProbeKernel> kernels;
  double bytes = 0;
  for (Pair& p : pairs) {
    ProbeKernel k;
    k.name = p.name;
    k.kernel = p.bound.kernel;
    k.coo = &p.s->t;
    k.csf = &p.bound.csf;
    k.slots = p.bound.dense;
    const auto& f = p.s->factors;
    const int d = p.s->t.order();
    if (p.name.ends_with(".mttkrp0")) {
      k.specialized = [&p, &f, d](DenseTensor* out, std::span<double>) {
        if (d == 3) {
          splatt_mttkrp3(p.bound.csf, f[1], f[2], out);
        } else {
          splatt_mttkrp4(p.bound.csf, f[1], f[2], f[3], out);
        }
      };
    } else if (p.name.ends_with(".tttp") && d == 3) {
      k.specialized = [&p, &f](DenseTensor*, std::span<double> out) {
        tttp3_specialized(p.bound.csf, f[0], f[1], f[2], out);
      };
    }
    kernels.push_back(std::move(k));
    bytes += static_cast<double>(csf_bytes(p.bound.csf));
  }
  report.metric("tensor.csf_bytes", bytes, "bytes");
  const std::vector<Plan> plans = decompose_setup(kernels, options, cfg, report);
  probe_exec(kernels, plans, 1, cfg, report);
  report_cache(cache, report);
  report_self(*tr, report);
  report.metric("util.pool_steals",
                steals / static_cast<double>(loop.latency.size()), "count");
  report_overhead(traced, untraced, report);
}

}  // namespace spttn::e2e
