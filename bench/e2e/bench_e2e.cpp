// bench_e2e: the repository's end-to-end benchmark. One process runs one
// named workload on inputs generated from --seed and prints
//   input.<tensor>.{dims,nnz,structure_hash,value_sum} and input.expr lines,
//   metric <name> <value> <unit> for every metric of its mode,
//   detail <name> <value> <unit> for per-kernel supplements,
//   ops <attempted> <failed>
// Untraced runs print the end-to-end metrics; --trace=<path> makes a
// separate traced run that prints the per-layer metrics and writes the
// spans as Chrome trace-event JSON to <path>. The exit code is 1 when any
// operation failed its output check or threw, and 2 on bad usage.
// bench/e2e/run.py checks the printed metrics against BENCHMARK.json.
//
//   bench_e2e --workload=als-nell2 --seed=1 --seconds=10
//   bench_e2e --workload=serve-churn --seed=1 --trace=serve.json
//   bench_e2e --workload=dist-nell2 --smoke
#include <malloc.h>

#include <iostream>
#include <limits>
#include <map>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace spttn::e2e {

std::string mttkrp_expr(int order, int mode) {
  std::string s = strfmt("M(i%d,r) = T(", mode);
  for (int m = 0; m < order; ++m) s += strfmt(m ? ",i%d" : "i%d", m);
  s += ")";
  for (int m = 0; m < order; ++m) {
    if (m != mode) s += strfmt(" * U%d(i%d,r)", m, m);
  }
  return s;
}

std::string tttp_expr(int order) {
  std::string idx;
  for (int m = 0; m < order; ++m) idx += strfmt(m ? ",i%d" : "i%d", m);
  std::string s = "S(" + idx + ") = T(" + idx + ")";
  for (int m = 0; m < order; ++m) s += strfmt(" * U%d(i%d,r)", m, m);
  return s;
}

DenseTensor small_factor(std::int64_t n, std::int64_t r, Rng& rng) {
  DenseTensor f({n, r});
  for (double& v : f.values()) v = rng.next_double() - 0.5;
  return f;
}

}  // namespace spttn::e2e

namespace {

using namespace spttn;
using namespace spttn::e2e;

const std::map<std::string, void (*)(const RunConfig&, Report&)>& workloads() {
  static const std::map<std::string, void (*)(const RunConfig&, Report&)> w =
      {{"als-nell2", run_als_nell2},
       {"complete-darpa", run_complete_darpa},
       {"dist-nell2", run_dist_nell2},
       {"serve-churn", run_serve_churn}};
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in the heap for reuse: no mmap-backed chunks, no
  // trimming. Otherwise the multi-megabyte buffers the executor allocates
  // on every call come back as fresh pages each time, and complete-darpa
  // spends a sixth of its CPU time in page faults (1.2M per 8 s run), whose
  // cost follows the host's load. Bytes live through operator new
  // (peak_mem_mb) are unaffected.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  Cli cli("bench_e2e");
  const std::string* workload = cli.add_string(
      "workload", "", "als-nell2 | complete-darpa | dist-nell2 | serve-churn");
  const std::int64_t* seed = cli.add_int("seed", 1, "input seed");
  const double* seconds =
      cli.add_double("seconds", 10, "measured seconds of the iteration loop");
  const std::string* trace = cli.add_string(
      "trace", "", "traced run: write Chrome trace JSON here and print the "
                   "per-layer metrics");
  const bool* smoke =
      cli.add_bool("smoke", false, "toy scale, 3 iterations (self-test)");
  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto it = workloads().find(*workload);
  if (it == workloads().end() || *seconds <= 0) {
    std::cerr << (*seconds <= 0 ? "bench_e2e: --seconds must be positive\n"
                                : "bench_e2e: unknown workload '" + *workload +
                                      "'\n")
              << cli.usage();
    return 2;
  }

  ThreadPool::set_global_threads(kLanes);
  const bool traced = !trace->empty();
  Tracer tracer(kLanes);
  RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(*seed);
  cfg.seconds = *seconds;
  cfg.smoke = *smoke;
  cfg.tracer = traced ? &tracer : nullptr;
  Report report;
  std::cout << "workload " << *workload << " seed " << *seed
            << (traced ? " traced" : "") << (cfg.smoke ? " smoke" : "")
            << std::endl;
  try {
    it->second(cfg, report);
  } catch (const std::exception& e) {
    report.op(false, e.what());
    std::cout << "ops " << report.attempted() << " " << report.failed() << "\n";
    return 1;
  }
  if (traced) {
    if (!tracer.write_chrome_json(*trace)) {
      std::cerr << "bench_e2e: cannot write " << *trace << "\n";
      return 1;
    }
  } else {
    report.metric("fail_ratio",
                  report.attempted() > 0
                      ? static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted())
                      : 1.0,
                  "ratio");
  }
  std::cout << "ops " << report.attempted() << " " << report.failed()
            << std::endl;
  return report.failed() > 0 || report.attempted() == 0 ? 1 : 0;
}
