#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <new>

#include "analysis/plan_verifier.hpp"
#include "exec/executor.hpp"
#include "exec/reference.hpp"
#include "serve/kernel_cache.hpp"
#include "tensor/generate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace spttn::e2e {

// ------------------------------------------------------------------ tracing

Tracer::Tracer(int lanes)
    : t0_(Clock::now()),
      lanes_(static_cast<std::size_t>(lanes)),
      stacks_(static_cast<std::size_t>(lanes)) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

int Tracer::open(int lane, std::string_view name, std::int64_t iter) {
  auto& spans = lanes_[static_cast<std::size_t>(lane)];
  auto& stack = stacks_[static_cast<std::size_t>(lane)];
  Span s;
  s.name = name;
  s.parent = stack.empty() ? -1 : stack.back();
  s.iter = (iter == kInherit && s.parent >= 0)
               ? spans[static_cast<std::size_t>(s.parent)].iter
               : iter;
  s.start_ns = now_ns();
  spans.push_back(std::move(s));
  const int id = static_cast<int>(spans.size()) - 1;
  stack.push_back(id);
  return id;
}

void Tracer::close(int lane, int id) {
  auto& spans = lanes_[static_cast<std::size_t>(lane)];
  spans[static_cast<std::size_t>(id)].end_ns = now_ns();
  stacks_[static_cast<std::size_t>(lane)].pop_back();
}

void Tracer::rename(int lane, int id, std::string_view name) {
  lanes_[static_cast<std::size_t>(lane)][static_cast<std::size_t>(id)].name =
      name;
}

std::optional<double> Tracer::median_self(std::string_view name) const {
  std::map<std::int64_t, double> acc;
  for (const auto& spans : lanes_) {
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.name != name || s.iter < 0) continue;
      acc[s.iter] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
  }
  if (acc.empty()) return std::nullopt;
  std::vector<double> per_iter;
  for (const auto& [iter, v] : acc) per_iter.push_back(v);
  return median(per_iter);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const auto& spans = lanes_[lane];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << (first ? "\n" : ",\n");
      first = false;
      // Span names are dotted identifiers; no JSON escaping needed.
      os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << lane << strfmt(",\"ts\":%.3f,\"dur\":%.3f",
                           static_cast<double>(s.start_ns) * 1e-3,
                           static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"iter\":" << s.iter << "}}";
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------- reporting

void Report::input(const std::string& tensor, const CooTensor& t) {
  std::string dims;
  for (int m = 0; m < t.order(); ++m) {
    if (m > 0) dims += 'x';
    dims += std::to_string(t.dim(m));
  }
  std::cout << "input." << tensor << ".dims " << dims << "\n"
            << "input." << tensor << ".nnz " << t.nnz() << "\n"
            << "input." << tensor << ".structure_hash "
            << strfmt("%016llx",
                      static_cast<unsigned long long>(t.structure_hash()))
            << "\n"
            << "input." << tensor << ".value_sum "
            << strfmt("%.17g", t.value_sum()) << "\n";
}

void Report::expr(const std::string& expr) {
  std::cout << "input.expr " << expr << "\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::cout << "metric " << name << " " << strfmt("%.12g", value) << " "
            << unit << "\n";
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  std::cout << "detail " << name << " " << strfmt("%.6g", value) << " "
            << unit << "\n";
}

void Report::op(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "bench_e2e: operation failed: " << why << "\n";
  }
}

// --------------------------------------------------------------- utilities

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream) {
  return hash_mix(hash_mix(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

CooTensor stand_in(const std::string& preset, double scale,
                   std::uint64_t stream, Rng& values) {
  Rng structure(input_seed(0x5eed, stream));
  CooTensor t = make_preset_tensor(preset, scale, structure);
  t.fill_random_values(values);
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double rel_error(std::span<const double> got, std::span<const double> want) {
  if (got.size() != want.size()) return INFINITY;
  double diff = 0;
  double norm = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    diff += (got[i] - want[i]) * (got[i] - want[i]);
    norm += want[i] * want[i];
  }
  return norm > 0 ? std::sqrt(diff / norm) : std::sqrt(diff);
}

bool bit_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) {
                      return std::memcmp(&x, &y, sizeof x) == 0;
                    });
}

std::int64_t csf_bytes(const CsfTensor& csf) {
  std::int64_t words = csf.nnz();
  for (int l = 0; l < csf.order(); ++l) {
    words += csf.num_nodes(l);
    if (l + 1 < csf.order()) {
      words += static_cast<std::int64_t>(csf.level_ptr(l).size());
    }
  }
  return words * 8;
}

KernelOutput::KernelOutput(const Kernel& kernel, std::int64_t nnz) {
  if (kernel.output_is_sparse()) {
    sparse.assign(static_cast<std::size_t>(nnz), 0.0);
    return;
  }
  std::vector<std::int64_t> dims;
  for (int id : kernel.output().idx) dims.push_back(kernel.index_dim(id));
  dense = DenseTensor(dims);
}

std::vector<double> reference_output(
    const Kernel& kernel, const CooTensor& sparse,
    const std::vector<const DenseTensor*>& slots) {
  KernelOutput out(kernel, sparse.nnz());
  reference_execute(kernel, sparse, slots, out.dense_ptr(), out.sparse);
  return {out.values().begin(), out.values().end()};
}

std::vector<const DenseTensor*> factors_of(
    const std::vector<const DenseTensor*>& slots) {
  std::vector<const DenseTensor*> out;
  for (const DenseTensor* d : slots) {
    if (d != nullptr) out.push_back(d);
  }
  return out;
}

namespace {

constexpr std::size_t kProbeRank = 32;
constexpr std::size_t kProbeRows = 4096;  // of the output and of U1
constexpr std::size_t kProbeRowsU2 = 2048;
constexpr std::size_t kProbeNnz = std::size_t{1} << 19;
constexpr std::size_t kProbeSweepDoubles = std::size_t{1} << 22;  // 32 MiB

/// A malloc-backed array: outside operator new, so peak_mem_mb does not
/// count it.
template <class T>
class MallocArray {
 public:
  explicit MallocArray(std::size_t n, T fill)
      : p_(static_cast<T*>(std::malloc(n * sizeof(T)))) {
    if (p_ == nullptr) throw std::bad_alloc();
    std::fill(p_, p_ + n, fill);
  }
  ~MallocArray() { std::free(p_); }
  MallocArray(const MallocArray&) = delete;
  MallocArray& operator=(const MallocArray&) = delete;
  T* data() { return p_; }

 private:
  T* p_;
};

/// One thread's host_probe() inputs: a synthetic order-3 COO tensor with
/// kProbeNnz / kProbeRows nonzeros per output row at random (j, k), its
/// two factors and the output (about 1 MiB each), and the sweep buffer.
struct ProbeBuffers {
  MallocArray<std::uint32_t> j{kProbeNnz, 0};
  MallocArray<std::uint32_t> k{kProbeNnz, 0};
  MallocArray<double> vals{kProbeNnz, 0.5};
  MallocArray<double> u1{kProbeRows * kProbeRank, 0.25};
  MallocArray<double> u2{kProbeRowsU2 * kProbeRank, 0.25};
  MallocArray<double> out{kProbeRows * kProbeRank, 0.0};
  MallocArray<double> sweep{kProbeSweepDoubles, 1.0};

  ProbeBuffers() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x >> 33;
    };
    for (std::size_t e = 0; e < kProbeNnz; ++e) {
      j.data()[e] = static_cast<std::uint32_t>(next() % kProbeRows);
      k.data()[e] = static_cast<std::uint32_t>(next() % kProbeRowsU2);
    }
  }
};

volatile double g_probe_sink = 0;

}  // namespace

double host_probe() {
  thread_local ProbeBuffers b;
  const std::uint32_t* j = b.j.data();
  const std::uint32_t* k = b.k.data();
  const double* vals = b.vals.data();
  const double* u1 = b.u1.data();
  const double* u2 = b.u2.data();
  double* out = b.out.data();
  double* sweep = b.sweep.data();
  const Timer timer;
  // MTTKRP out(i,r) += T(i,j,k) * U1(j,r) * U2(k,r), nonzeros in row order.
  constexpr std::size_t kPerRow = kProbeNnz / kProbeRows;
  for (std::size_t e = 0; e < kProbeNnz; ++e) {
    double* o = out + e / kPerRow * kProbeRank;
    const double* a = u1 + std::size_t{j[e]} * kProbeRank;
    const double* c = u2 + std::size_t{k[e]} * kProbeRank;
    const double v = vals[e];
    for (std::size_t r = 0; r < kProbeRank; ++r) o[r] += v * a[r] * c[r];
  }
  for (std::size_t i = 0; i < kProbeSweepDoubles; ++i) {
    sweep[i] = sweep[i] * 0.999 + 0.001;
  }
  g_probe_sink = out[kProbeRank + 1] + sweep[kProbeSweepDoubles / 2];
  return timer.seconds();
}

LoopSamples timed_loop(const RunConfig& cfg, int min_iters, Report& report,
                       const std::function<double(std::int64_t)>& body) {
  LoopSamples s;
  for (auto* v : {&s.start, &s.latency, &s.kernel, &s.probe, &s.steals}) {
    v->reserve(1 << 16);
  }
  const ThreadPool& pool = ThreadPool::global();
  reset_peak_mem();
  const Timer total;
  for (std::int64_t i = 0;; ++i) {
    const double start = total.seconds();
    if (i >= min_iters && (cfg.smoke || start >= cfg.seconds)) break;
    s.probe.push_back(host_probe());
    const auto steals = pool.steal_count();
    const Timer t;
    double kernel = 0;
    try {
      kernel = body(i);
      report.op(true);
    } catch (const std::exception& e) {
      report.op(false, e.what());
    }
    s.latency.push_back(t.seconds());
    s.start.push_back(start);
    s.kernel.push_back(kernel);
    s.steals.push_back(static_cast<double>(pool.steal_count() - steals));
  }
  s.wall = total.seconds();
  return s;
}

namespace {

/// First quartile over operations of value / the probe paired with it.
double vs_probe(const std::vector<double>& values,
                const std::vector<double>& probe) {
  std::vector<double> ratio(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ratio[i] = values[i] / probe[i];
  }
  return quantile(std::move(ratio), 0.25);
}

}  // namespace

void report_end_to_end(const std::vector<double>& setup,
                       const LoopSamples& loop, Report& report) {
  const double peak_mb = peak_mem_mb();  // before this function allocates
  report.metric("setup_s", median(setup), "s");
  report.metric("iter_vs_probe", vs_probe(loop.latency, loop.probe), "ratio");
  report.metric("peak_mem_mb", peak_mb, "MB");
  report.metric("kernel_vs_probe", vs_probe(loop.kernel, loop.probe), "ratio");
  report.metric("probe_p50_s", median(loop.probe), "s");
  report.metric("iter_p50_s", quantile(loop.latency, 0.5), "s");
  report.metric("iter_p90_s", quantile(loop.latency, 0.9), "s");
  report.metric("kernel_p50_s", median(loop.kernel), "s");
  report.metric("ops_per_s",
                static_cast<double>(loop.latency.size()) / loop.wall, "1/s");
  report.detail("setup_reps", static_cast<double>(setup.size()), "count");
  report.detail("iter_samples", static_cast<double>(loop.latency.size()),
                "count");
}

// ---------------------------------------------------------- layer probes

std::vector<Plan> decompose_setup(const std::vector<ProbeKernel>& kernels,
                                  const PlannerOptions& options,
                                  const RunConfig& cfg, Report& report) {
  Tracer* tr = cfg.tracer;
  Scope top(tr, "setup.decomposed", 0);
  // Fresh statistics per tensor: their lazily computed projections are
  // planning work, which a bound session would already have cached.
  std::map<const CooTensor*, SparsityStats> stats;
  std::vector<Plan> plans;
  double paths = 0;
  double dp_evals = 0;
  double flops = 0;
  for (const ProbeKernel& k : kernels) {
    auto it = stats.find(k.coo);
    if (it == stats.end()) {
      Scope s(tr, "tensor.stats");
      it = stats.emplace(k.coo, SparsityStats::from_coo(*k.coo)).first;
    }
    Plan plan;
    {
      Scope s(tr, "core.plan");
      plan = make_plan(k.kernel, it->second, options);
    }
    VerifyReport verdict;
    {
      Scope s(tr, "analysis.verify");
      verdict = verify_plan(k.kernel, plan, options, &it->second);
    }
    report.op(verdict.ok(), k.name + " verify_plan: " + verdict.to_string());
    {
      Scope s(tr, "exec.compile");
      const FusedExecutor exec(k.kernel, plan);
    }
    paths += plan.paths_searched;
    dp_evals += static_cast<double>(plan.dp_evaluations);
    flops += plan.flops;
    plans.push_back(std::move(plan));
  }
  report.metric("core.paths_searched", paths, "count");
  report.metric("core.dp_evaluations", dp_evals, "count");
  report.metric("core.model_flops", flops, "flop");
  return plans;
}

void probe_exec(const std::vector<ProbeKernel>& kernels,
                const std::vector<Plan>& plans, int workload_lanes,
                const RunConfig& cfg, Report& report) {
  Tracer* tr = cfg.tracer;
  Scope top(tr, "probe.exec");
  const int reps = cfg.smoke ? 1 : 5;
  double sum_work = 0, sum_1 = 0, sum_lanes = 0, sum_flops = 0;
  double spec_ours = 0, spec_theirs = 0;
  ExecStats agg;
  agg.threads_used = 0;
  agg.partition_imbalance = 0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const ProbeKernel& k = kernels[i];
    FusedExecutor exec(k.kernel, plans[i]);
    KernelOutput out(k.kernel, k.csf->nnz());
    ExecArgs args;
    args.sparse = k.csf;
    args.dense = k.slots;
    args.out_dense = out.dense_ptr();
    args.out_sparse = out.sparse;

    const auto run = [&](int lanes, ExecStats* stats) {
      args.num_threads = lanes;
      args.stats = stats;
      const Timer t;
      exec.execute(args);
      return t.seconds();
    };
    run(workload_lanes, nullptr);  // warm
    std::vector<double> work, one, multi, spec;
    for (int r = 0; r < reps; ++r) {
      Scope s(tr, "exec.execute", r);
      work.push_back(run(workload_lanes, nullptr));
    }
    ExecStats stats;
    for (int r = 0; r < reps; ++r) {
      {
        Scope s(tr, "probe.execute_1lane", r);
        one.push_back(run(1, nullptr));
      }
      Scope s(tr, "probe.execute_lanes", r);
      multi.push_back(run(kLanes, &stats));
    }
    if (k.specialized) {
      for (int r = 0; r < reps; ++r) {
        Scope s(tr, "probe.specialized", r);
        const Timer t;
        k.specialized(out.dense_ptr(), out.sparse);
        spec.push_back(t.seconds());
      }
    }

    const double w = median(work), t1 = median(one), tl = median(multi);
    sum_work += w;
    sum_1 += t1;
    sum_lanes += tl;
    sum_flops += plans[i].flops;
    if (!spec.empty()) {
      spec_ours += t1;
      spec_theirs += median(spec);
      report.detail("exec.vs_specialized." + k.name, t1 / median(spec),
                    "ratio");
    }
    agg.threads_used = std::max(agg.threads_used, stats.threads_used);
    agg.fallback_regions += stats.fallback_regions;
    agg.nested_regions += stats.nested_regions;
    agg.lowered_regions += stats.lowered_regions;
    agg.total_regions += stats.total_regions;
    agg.partition_imbalance =
        std::max(agg.partition_imbalance, stats.partition_imbalance);

    report.detail("exec.execute_s." + k.name, w, "s");
    report.detail("exec.execute_1lane_s." + k.name, t1, "s");
    report.detail("exec.execute_lanes_s." + k.name, tl, "s");
    report.detail("exec.lane_speedup." + k.name, t1 / tl, "ratio");
    report.detail("exec.model_gflops." + k.name, plans[i].flops / w * 1e-9,
                  "GFLOP/s");
    report.detail("exec.threads_used." + k.name, stats.threads_used, "count");
    report.detail("exec.imbalance." + k.name, stats.partition_imbalance,
                  "ratio");
  }
  report.metric("exec.vs_specialized",
                spec_theirs > 0 ? spec_ours / spec_theirs : 0.0, "ratio");
  report.metric("exec.model_gflops", sum_flops / sum_work * 1e-9, "GFLOP/s");
  report.metric("exec.lane_speedup", sum_1 / sum_lanes, "ratio");
  report.metric("exec.threads_used", agg.threads_used, "count");
  report.metric("exec.fallback_regions", agg.fallback_regions, "count");
  report.metric("exec.nested_regions", agg.nested_regions, "count");
  report.metric("exec.lowered_regions", agg.lowered_regions, "count");
  report.metric("exec.total_regions", agg.total_regions, "count");
  report.metric("exec.imbalance", agg.partition_imbalance, "ratio");
}

void report_self(const Tracer& tracer, Report& report) {
  for (const char* name :
       {"tensor.bind_s", "core.plan_s", "analysis.verify_s", "exec.compile_s",
        "exec.execute_s", "serve.prepare_s", "serve.hit_s", "serve.miss_s",
        "serve.values_write_s", "dist.partition_s", "dist.run_s",
        "apps.dense_s", "apps.residual_s"}) {
    const std::string metric = name;
    const std::optional<double> self =
        tracer.median_self(metric.substr(0, metric.size() - 2));
    if (self) report.metric(metric, *self, "s");
  }
}

void report_cache(const KernelCache& cache, Report& report) {
  const KernelCache::Counters c = cache.counters();
  const auto probes = static_cast<double>(c.hits + c.misses);
  report.metric("serve.hit_ratio",
                probes > 0 ? static_cast<double>(c.hits) / probes : 0.0,
                "ratio");
  report.metric("serve.planned", static_cast<double>(c.planned), "count");
  report.metric("serve.coalesced", static_cast<double>(c.coalesced), "count");
  report.metric("serve.evictions", static_cast<double>(c.evictions), "count");
}

void report_iteration_split(const LoopSamples& loop, Report& report) {
  std::vector<double> traced, untraced, traced_steals;
  for (std::size_t i = 0; i < loop.latency.size(); ++i) {
    (i % 2 == 0 ? traced : untraced).push_back(loop.latency[i]);
    if (i % 2 == 0) traced_steals.push_back(loop.steals[i]);
  }
  report.metric("util.pool_steals", median(traced_steals), "count");
  report_overhead(traced, untraced, report);
}

void report_overhead(const std::vector<double>& traced,
                     const std::vector<double>& untraced, Report& report) {
  report.metric("trace.overhead", median(traced) / median(untraced) - 1.0,
                "ratio");
}

}  // namespace spttn::e2e
