// Figure 10: runtime distribution over randomly sampled loop orders of the
// all-mode order-3 TTMc kernel (paper: N=1024, R=32, 0.1% sparsity, 25% of
// the CSF-consistent loop orders; red cut-off line; green line = runtime of
// the order picked by SpTTN-Cyclops). Every order, the pick included, is
// timed as the median of kReps runs after one warm-up, and times print in
// milliseconds. Each sampled order's output is checked once, outside the
// timing, against the planner nest's: a relative max diff above 1e-9, or
// an order that fails to run, is named on stderr and the program exits 1.
//
//   bench_fig10_loop_orders --n 64 --rank 8 --fraction 0.05   # CI smoke
#include <algorithm>

#include "bench_common.hpp"
#include "core/enumerate.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {
/// Timed runs per loop order, the planner's pick included.
constexpr int kReps = 3;
}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_fig10_loop_orders");
  const auto* n = cli.add_int("n", 256, "mode size (paper: 1024)");
  const auto* rank = cli.add_int("rank", 32, "dense rank R (paper: 32)");
  const auto* sparsity = cli.add_double("sparsity", 0.001, "nnz fraction");
  const auto* fraction =
      cli.add_double("fraction", 0.05, "fraction of orders to run "
                                       "(paper: 0.25)");
  const auto* seed = cli.add_int("seed", 3, "generator seed");
  cli.parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(*seed));
  const auto nnz = static_cast<std::int64_t>(static_cast<double>(*n) *
                                             static_cast<double>(*n) *
                                             static_cast<double>(*n) *
                                             *sparsity);
  CooTensor t = random_coo({*n, *n, *n}, nnz, rng);
  auto p = make_problem(allmode_ttmc3_expr(), std::move(t),
                        {{"r", *rank}, {"s", *rank}, {"u", *rank}}, rng);

  // The contraction path SpTTN-Cyclops picks, its chosen loop order, and
  // the output every sampled order must reproduce.
  Plan plan;
  Output want;
  const RunResult chosen = run_spttn(*p, kReps, {}, &plan, &want);
  if (!chosen.ok) {
    std::cerr << "bench_fig10_loop_orders: FAILED the planner's nest\n";
    return 1;
  }

  // Sample loop orders of that path (CSF-consistent, like the paper).
  const double total_orders =
      count_orders(p->kernel(), plan.path, /*restrict_csf_order=*/true);
  const auto samples = static_cast<std::size_t>(
      std::max(1.0, total_orders * *fraction));
  std::vector<LoopOrder> orders =
      sample_orders(p->kernel(), plan.path, {}, samples, rng);

  std::vector<double> times;
  times.reserve(orders.size());
  std::vector<std::string> failures;
  for (const auto& order : orders) {
    const std::string name = order_to_string(p->kernel(), order);
    Output o = Output::make(*p);
    try {
      FusedExecutor exec(p->kernel(), plan.path, order);
      ExecArgs args;
      args.sparse = &p->bound.csf;
      args.dense = p->bound.dense;
      args.out_dense = &o.dense;
      times.push_back(time_median([&] { exec.execute(args); }, kReps));
    } catch (const Error& e) {
      failures.push_back(name + ": " + e.what());
      continue;
    }
    // The check, once, on the output the last timed run left behind.
    const double diff = rel_max_diff(o.values(), want.values());
    if (!(diff <= 1e-9)) {
      failures.push_back(strfmt("%s: relative max diff %.3e > 1e-9 against "
                                "the planner's nest",
                                name.c_str(), diff));
    }
  }
  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::cerr << "bench_fig10_loop_orders: FAILED " << f << "\n";
    }
    return 1;
  }
  std::sort(times.begin(), times.end());
  const Summary s = summarize(times);

  Table table(strfmt(
      "Figure 10 — all-mode TTMc over %zu random loop orders (of %.0f), "
      "N=%lld R=%lld",
      orders.size(), total_orders, static_cast<long long>(*n),
      static_cast<long long>(*rank)));
  const auto ms = [](double seconds) {
    return strfmt("%.3f", seconds * 1e3);
  };
  table.set_header({"statistic", "milliseconds"});
  table.add_row({"best sampled order", ms(s.min)});
  table.add_row({"25th percentile", ms(times[times.size() / 4])});
  table.add_row({"median sampled order", ms(s.median)});
  table.add_row({"75th percentile", ms(times[3 * times.size() / 4])});
  table.add_row({"worst sampled order", ms(s.max)});
  table.add_row({"SpTTN-Cyclops pick (green line)", ms(chosen.seconds)});
  const std::size_t rank_pos = static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), chosen.seconds) -
      times.begin());
  table.add_row({"rank of the pick among samples",
                 strfmt("%zu / %zu", rank_pos, times.size())});
  table.add_note("paper: the picked order sits below the cut-off, near the "
                 "best of the sampled distribution");
  table.add_note("each sampled order's output checked once against the "
                 "planner nest's (relative max diff <= 1e-9), outside the "
                 "timing");

  // ASCII histogram of the sampled distribution (the figure's scatter).
  table.print(std::cout);
  const int bins = 12;
  std::cout << "runtime histogram, milliseconds (each * ~ one sampled "
               "order):\n";
  for (int b = 0; b < bins; ++b) {
    const double lo = s.min + (s.max - s.min) * b / bins;
    const double hi = s.min + (s.max - s.min) * (b + 1) / bins;
    int count = 0;
    for (double v : times) {
      if (v >= lo && (v < hi || b == bins - 1)) ++count;
    }
    std::cout << "  [" << ms(lo) << ", " << ms(hi) << ") ";
    for (int i = 0; i < count; ++i) std::cout << '*';
    if (chosen.seconds >= lo && (chosen.seconds < hi || b == bins - 1)) {
      std::cout << "  <= SpTTN-Cyclops";
    }
    std::cout << '\n';
  }
  return 0;
}
