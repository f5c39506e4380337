// Kernel benchmark: the four paper kernel families (MTTKRP-3/4, TTMc-3,
// TTTP-3) timed on one planned FusedExecutor (its lowered program, the one
// driver every execution runs) against the hand-specialized kernels of
// specialized.cpp as the tight-loop ceiling; the specialized column bounds
// how much headroom remains. Each row is also checked once, outside the
// timing: the lowered output must match the specialized kernel's to a
// relative max diff of 1e-12, and TTTP's values must be equal. A kernel
// that fails to plan or run, or that mismatches, is named on stderr and
// the program exits 1 (without writing --json).
//
//   bench_kernels                     # table on stdout
//   bench_kernels --json=out.json     # also emit the machine-readable run
//                                     # (schema shared with bench_serve;
//                                     # BENCH_kernels.json is a checked-in
//                                     # Release run)
#include <algorithm>
#include <fstream>
#include <span>

#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {

struct KernelRow {
  std::string kernel;
  std::int64_t nnz = 0;
  double lowered_s = 0;
  double spec_s = 0;  // 0 when no specialized implementation applies
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_kernels");
  const auto* dim = cli.add_int("dim", 96, "sparse index extents");
  const auto* rank = cli.add_int("rank", 32, "dense ranks");
  const auto* nnz = cli.add_int("nnz", 300000, "sparse nonzeros (pre-dedup)");
  const auto* reps = cli.add_int("reps", 5, "timing repetitions");
  const auto* seed = cli.add_int("seed", 17, "generator seed");
  const std::string* json =
      cli.add_string("json", "", "also write results to this JSON file");
  cli.parse(argc, argv);

  const std::int64_t d = *dim;
  const auto dims3 = std::vector<std::int64_t>{d, d, d};
  const auto dims4 = std::vector<std::int64_t>{d / 4, d / 4, d / 4, d / 4};
  const std::vector<std::pair<std::string, std::int64_t>> ranks = {
      {"r", *rank}, {"s", *rank}};

  struct Spec {
    std::string name;
    std::string expr;
    const std::vector<std::int64_t>* dims;
  };
  const std::vector<Spec> specs = {
      {"mttkrp3", mttkrp3_expr(), &dims3},
      {"mttkrp4", mttkrp4_expr(), &dims4},
      {"ttmc3", ttmc3_expr(), &dims3},
      {"tttp3", tttp3_expr(), &dims3},
  };

  std::vector<KernelRow> rows;
  std::vector<std::string> failures;
  Table table(strfmt("Fused execution vs hand-specialized kernels, R=%lld",
                     static_cast<long long>(*rank)));
  table.set_header({"kernel", "nnz", "lowered[s]", "spec[s]",
                    "spec vs lowered", "max rel diff"});
  for (const Spec& s : specs) {
    Rng rng(static_cast<std::uint64_t>(*seed) ^
            hash_mix(s.name.size() * 31));
    CooTensor t = random_coo(*s.dims, *nnz, rng);
    auto p = make_problem(s.expr, std::move(t), ranks, rng);

    const int r = static_cast<int>(*reps);
    Output o = Output::make(*p);

    KernelRow row;
    row.kernel = s.name;
    row.nnz = p->sparse.nnz();
    Output lowered;
    const RunResult run = run_spttn(*p, r, {}, nullptr, &lowered);
    if (!run.ok) {
      failures.push_back(s.name + ": planning or execution failed");
      table.add_row({row.kernel, human_count(static_cast<double>(row.nnz)),
                     run.cell(), "-", "-", "-"});
      continue;
    }
    row.lowered_s = run.seconds;

    // The hand-specialized ceilings (specialized.cpp).
    if (s.name == "mttkrp3") {
      row.spec_s = time_median(
          [&] {
            splatt_mttkrp3(p->bound.csf, p->factors[0], p->factors[1],
                           &o.dense);
          },
          r);
    } else if (s.name == "mttkrp4") {
      row.spec_s = time_median(
          [&] {
            splatt_mttkrp4(p->bound.csf, p->factors[0], p->factors[1],
                           p->factors[2], &o.dense);
          },
          r);
    } else if (s.name == "ttmc3") {
      row.spec_s = time_median(
          [&] {
            ttmc3_specialized(p->bound.csf, p->factors[0], p->factors[1],
                              &o.dense);
          },
          r);
    } else if (s.name == "tttp3") {
      row.spec_s = time_median(
          [&] {
            tttp3_specialized(p->bound.csf, p->factors[0], p->factors[1],
                              p->factors[2], o.sparse_vals);
          },
          r);
    }

    // The check, once, on the outputs the last timed runs left behind.
    const std::span<const double> got = lowered.values();
    const std::span<const double> want = o.values();
    const double diff = rel_max_diff(got, want);
    if (diff > 1e-12) {
      failures.push_back(
          strfmt("%s: relative max diff %.3e > 1e-12 against the "
                 "specialized kernel",
                 s.name.c_str(), diff));
    } else if (!lowered.sparse_vals.empty() &&
               !std::equal(got.begin(), got.end(), want.begin())) {
      failures.push_back(s.name +
                         ": TTTP values differ from the specialized kernel's");
    }

    const auto ratio = [](double base, double ours) -> std::string {
      if (base <= 0 || ours <= 0) return "-";
      return strfmt("%.2fx", base / ours);
    };
    table.add_row({row.kernel,
                   human_count(static_cast<double>(row.nnz)),
                   strfmt("%.4f", row.lowered_s),
                   row.spec_s > 0 ? strfmt("%.4f", row.spec_s) : "-",
                   ratio(row.lowered_s, row.spec_s), strfmt("%.1e", diff)});
    rows.push_back(row);
  }
  table.add_note("one default plan per kernel, planned outside the timing");
  table.add_note("each row's lowered output checked once against the "
                 "specialized kernel's, outside the timing");
  table.print(std::cout);
  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::cerr << "bench_kernels: FAILED " << f << "\n";
    }
    return 1;
  }

  if (!json->empty()) {
    std::ofstream os(*json);
    os << "{\n  \"bench\": \"bench_kernels\",\n  \"unit\": \"s\",\n"
       << "  \"dim\": " << d << ",\n  \"rank\": " << *rank
       << ",\n  \"reps\": " << *reps << ",\n  \"seed\": " << *seed
       << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const KernelRow& r = rows[i];
      os << "    {\"kernel\": \"" << r.kernel << "\", \"nnz\": " << r.nnz
         << ", \"lowered_s\": " << strfmt("%.6f", r.lowered_s)
         << ", \"specialized_s\": "
         << (r.spec_s > 0 ? strfmt("%.6f", r.spec_s) : std::string("null"))
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << *json << "\n";
  }
  return 0;
}
