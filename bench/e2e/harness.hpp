// Shared machinery of the end-to-end benchmark: the span tracer, the
// reporter, sample statistics, and the per-layer probes.
//
// Every layer is measured from outside, by timing calls into the library's
// public headers; nothing here reaches into library internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf_tensor.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/einsum.hpp"

namespace spttn {
class KernelCache;
class Rng;
}

namespace spttn::e2e {

using Clock = std::chrono::steady_clock;

/// Lanes of the process-wide pool every workload runs on, and the number
/// of serve-churn clients. Half the 4 vCPUs the benchmark was built on: a
/// parallel region waits for its slowest lane, so with a lane on every vCPU
/// any other runnable thread (the harness, the kernel, a neighbour's
/// interrupt) stretches the whole region.
inline constexpr int kLanes = 2;

// ------------------------------------------------------------------ tracing

/// Span iteration ids: kInherit takes the parent span's id; spans under
/// kNotSample (the warm-up iteration, checks included) are never samples.
inline constexpr std::int64_t kInherit = -1;
inline constexpr std::int64_t kNotSample = -2;

/// In-memory span recorder, one lane per client thread (a lane is only
/// touched by its own thread). Spans carry a name, start/end, the enclosing
/// span on the same lane, and an iteration id; they are written as Chrome
/// trace-event JSON when the run ends.
class Tracer {
 public:
  explicit Tracer(int lanes);

  int open(int lane, std::string_view name, std::int64_t iter);
  void close(int lane, int id);
  /// Replace the name of an open span (e.g. once a cache probe's outcome
  /// is known).
  void rename(int lane, int id, std::string_view name);

  /// Median over iteration ids of the summed self time (duration minus
  /// direct child spans) of spans named `name`, in seconds; kNotSample
  /// spans excluded, nullopt when there is no such span.
  std::optional<double> median_self(std::string_view name) const;

  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t iter = kInherit;
  };
  std::int64_t now_ns() const;

  Clock::time_point t0_;
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::vector<int>> stacks_;
};

/// RAII span; costs one branch when `tracer` is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::int64_t iter = kInherit,
        int lane = 0)
      : tracer_(tracer), lane_(lane) {
    if (tracer_ != nullptr) id_ = tracer_->open(lane_, name, iter);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(lane_, id_);
  }
  void rename(std::string_view name) {
    if (tracer_ != nullptr) tracer_->rename(lane_, id_, name);
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int lane_;
  int id_ = -1;
};

// ---------------------------------------------------------------- reporting

/// Prints input identity, metric and detail lines to stdout, and counts
/// attempted and failed operations. Not thread-safe.
class Report {
 public:
  void input(const std::string& tensor, const CooTensor& t);
  void expr(const std::string& expr);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Supplementary number (per kernel or per mode) outside the metric set.
  void detail(const std::string& name, double value, const std::string& unit);
  /// Record one operation; a failed one prints `why` to stderr.
  void op(bool ok, const std::string& why = "");

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Everything a workload takes from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  /// Non-null in the traced run.
  Tracer* tracer = nullptr;
};

/// Untraced runs set up this many times and report the median.
inline int setup_reps(const RunConfig& cfg) {
  return cfg.smoke || cfg.tracer != nullptr ? 1 : 5;
}

/// The traced run alternates traced and untraced iterations, so drift
/// affects both samples of the tracing-overhead ratio alike.
inline Tracer* iter_tracer(const RunConfig& cfg, std::int64_t iter) {
  return iter % 2 == 0 ? cfg.tracer : nullptr;
}

/// Seed of one generated input: distinct streams per workload input.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream);

/// make_preset_tensor stand-in whose sparsity structure depends only on
/// `stream`, with values drawn from `values`. The structure is part of the
/// workload, like a dataset: drawn per seed, the geometric fanouts over a
/// few hundred roots move nnz and the chosen nests' cost by more than the
/// regression bounds.
CooTensor stand_in(const std::string& preset, double scale,
                   std::uint64_t stream, Rng& values);

/// Linear-interpolated quantile of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Bytes live through operator new (memory.cpp): reset_peak_mem() starts a
/// new peak at the current level, peak_mem_mb() reads it in MB.
void reset_peak_mem();
double peak_mem_mb();

/// Norm-wise relative error ||got - want|| / ||want||.
double rel_error(std::span<const double> got, std::span<const double> want);
bool bit_equal(std::span<const double> a, std::span<const double> b);

/// Bytes held by a CSF tree's index, pointer and value arrays.
std::int64_t csf_bytes(const CsfTensor& csf);

/// Output buffer of a kernel with bound dims: a dense tensor, or values on
/// the sparse operand's pattern (TTTP-style outputs).
struct KernelOutput {
  DenseTensor dense;
  std::vector<double> sparse;

  KernelOutput(const Kernel& kernel, std::int64_t nnz);
  DenseTensor* dense_ptr() { return sparse.empty() ? &dense : nullptr; }
  std::span<const double> values() const {
    return sparse.empty() ? dense.values() : std::span<const double>(sparse);
  }
};

/// Exact reference output of a kernel with bound dims, as values.
std::vector<double> reference_output(
    const Kernel& kernel, const CooTensor& sparse,
    const std::vector<const DenseTensor*>& slots);

/// The dense factors of a slot vector in order of appearance (the form
/// Session::prepare and bind take).
std::vector<const DenseTensor*> factors_of(
    const std::vector<const DenseTensor*>& slots);

/// Seconds the calling thread takes for a fixed amount of benchmark-owned
/// work: an MTTKRP over a synthetic COO tensor of 512Ki nonzeros with
/// rank-32 factors of about 1 MiB (core, L2 share, streamed indices), then
/// one read-modify-write pass over 32 MiB (memory throughput). On a shared
/// host the same code runs up to 2x slower while other tenants are busy;
/// the probe slows with it, so an operation's latency divided by the probe
/// taken just before it reads about the same on a busy and a quiet host.
/// The buffers are per thread and outside operator new (not in
/// peak_mem_mb). No library code runs inside, so no change to the library
/// moves it.
double host_probe();

/// How often each serve-churn client re-probes the host. The clients'
/// probes are staggered evenly over this period, so that no two overlap.
inline constexpr std::chrono::milliseconds kProbeEvery{250};

/// Samples of a measured loop, one entry per operation (an iteration, or a
/// request of serve-churn).
struct LoopSamples {
  std::vector<double> start;    ///< seconds from the loop's start
  std::vector<double> latency;  ///< wall time of the operation
  std::vector<double> kernel;   ///< its part inside the contraction calls
  std::vector<double> probe;    ///< the client's latest host_probe()
  std::vector<double> steals;   ///< ThreadPool::steal_count delta
  double wall = 0;              ///< the loop's wall time
};

/// Run `body(i)` at least `min_iters` times and until `cfg.seconds` have
/// elapsed (smoke runs stop at exactly `min_iters`), each call right after
/// a host_probe(). `body` returns the seconds it spent in contraction
/// calls; each call is one operation of `report`, failed when it throws.
LoopSamples timed_loop(const RunConfig& cfg, int min_iters, Report& report,
                       const std::function<double(std::int64_t)>& body);

/// The untraced end-to-end metrics of one run, read right after the
/// measured loop: setup_s, iter_vs_probe and peak_mem_mb, which
/// BENCHMARK.json gates, and the ungated kernel_vs_probe, iter_p50_s,
/// iter_p90_s, kernel_p50_s, ops_per_s and probe_p50_s. fail_ratio is
/// printed by main at exit.
void report_end_to_end(const std::vector<double>& setup,
                       const LoopSamples& loop, Report& report);

// ------------------------------------------------------------ layer probes

/// One kernel of a workload, bound for direct calls into the layers.
struct ProbeKernel {
  std::string name;
  Kernel kernel;  ///< dims bound
  const CooTensor* coo = nullptr;  ///< the sparse operand, sorted
  const CsfTensor* csf = nullptr;  ///< its CSF, as the workload executes it
  std::vector<const DenseTensor*> slots;  ///< per input; sparse slot null
  /// Hand-written counterpart from exec/specialized.hpp, when one exists;
  /// writes the same output as the kernel.
  std::function<void(DenseTensor* out_dense, std::span<double> out_sparse)>
      specialized;
};

/// Set-up decomposed into its layers, as one set-up (span iteration id 0):
/// fresh SparsityStats per tensor, then make_plan, verify_plan and the
/// FusedExecutor constructor per kernel. Reports the core.* counts; a plan
/// the verifier rejects is a failed op.
std::vector<Plan> decompose_setup(const std::vector<ProbeKernel>& kernels,
                                  const PlannerOptions& options,
                                  const RunConfig& cfg, Report& report);

/// Warm-execution probes of every kernel: FusedExecutor::execute at the
/// workload's lane count (span iteration id = repetition, so exec.execute_s
/// sums the kernels), at 1 and at kLanes lanes (with ExecStats), and the
/// specialized counterpart. Reports the exec.* metrics and per-kernel
/// details.
void probe_exec(const std::vector<ProbeKernel>& kernels,
                const std::vector<Plan>& plans, int workload_lanes,
                const RunConfig& cfg, Report& report);

/// Reports each span-derived per-layer time metric as the median over
/// iteration ids of its spans' self time (span name = metric name minus
/// "_s"). A metric whose layer the workload never calls is not printed:
/// BENCHMARK.json lists only the metrics every workload measures.
void report_self(const Tracer& tracer, Report& report);

/// Reports serve.hit_ratio, serve.planned, serve.coalesced and
/// serve.evictions from the cache's counters.
void report_cache(const KernelCache& cache, Report& report);

/// Reports trace.overhead: traced over untraced median latency, minus 1.
void report_overhead(const std::vector<double>& traced,
                     const std::vector<double>& untraced, Report& report);

/// From a traced run's alternating iterations (even = traced): reports
/// util.pool_steals, the median steal count of a traced iteration, and
/// trace.overhead, the traced over the untraced iteration median minus 1.
void report_iteration_split(const LoopSamples& loop, Report& report);

}  // namespace spttn::e2e
