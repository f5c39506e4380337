// Figure 8: strong scaling of TTMc, MTTKRP and TTTP on synthetic tensors
// with identical mode sizes (paper: order-3 N=8192 / order-4 N=1024, 0.1%
// sparsity, R=32; 64 MPI ranks per node).
//
// Local kernels execute for real per rank (max measured), and each row
// reports the run with the median total over --reps. Collectives move real
// bytes through ShmemComm on the process-wide pool; each row reports their
// measured seconds beside the alpha-beta model's price of the same
// collectives (see src/dist/comm.hpp and EXPERIMENTS.md for the constants —
// the paper's simulation-first methodology), both from the one run.
#include "dist/dist_spttn.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <functional>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {

// The host's own lane scaling: the speedup of one fixed compute batch (24
// equal chunks of dependent square roots) on the pool at its current lanes
// over the same batch on the calling thread alone. A shared host can run
// two threads at one CPU's throughput for a while, so a row's speedup
// speaks for the executor only beside a host speedup near the row's lanes.
double host_speedup(int reps) {
  constexpr std::int64_t kChunks = 24;  // even over 1, 2, 3, 4, 6 or 8 lanes
  std::array<volatile double, kChunks> sink{};
  const std::function<void(std::int64_t)> chunk = [&](std::int64_t c) {
    double x = 2.0 + static_cast<double>(c);
    for (int i = 0; i < 20000; ++i) x = std::sqrt(x + static_cast<double>(i));
    sink[static_cast<std::size_t>(c)] = x;
  };
  const double alone = time_median(
      [&] {
        for (std::int64_t c = 0; c < kChunks; ++c) chunk(c);
      },
      reps);
  const double pooled = time_median(
      [&] { ThreadPool::global().parallel_apply(kChunks, chunk); }, reps);
  return alone / pooled;
}

// Shared-memory strong scaling on the work-partitioned executor: one
// process, the root loop chunked by subtree nnz over the persistent thread
// pool. Correctness is checked every row against the 1-thread result, and
// each row's host column is host_speedup on the row's pool, timed just
// before the row.
void thread_scaling_table(const std::string& title, const Problem& p,
                          const std::vector<int>& threads, int reps) {
  const Plan plan = plan_kernel(p.bound);
  FusedExecutor exec(p.kernel(), plan);
  Table table(title);
  table.set_header({"threads", "parts", "time[s]", "speedup", "host",
                    "efficiency", "imbalance", "max|diff|"});
  Output base = Output::make(p);
  Output out = Output::make(p);
  double t1 = 0;
  for (int nt : threads) {
    // Strong scaling measures "what if the machine ran nt lanes": size the
    // pool to the row. Without this, on a host with fewer cores than the
    // widest row the partials budget (clamped to the pool's lanes) would
    // silently keep the nested split out of the parts column.
    ThreadPool::set_global_threads(nt);
    const double host = host_speedup(reps);
    ExecArgs args;
    args.sparse = &p.bound.csf;
    args.dense = p.bound.dense;
    args.out_dense = out.sparse_vals.empty() ? &out.dense : nullptr;
    args.out_sparse = out.sparse_vals;
    args.num_threads = nt;
    ExecStats stats;
    args.stats = &stats;
    const double secs = time_median([&] { exec.execute(args); }, reps);
    double diff = 0;
    if (nt == threads.front()) {
      t1 = secs;
      if (out.sparse_vals.empty()) {
        base.dense = out.dense;
      } else {
        base.sparse_vals = out.sparse_vals;
      }
    } else if (out.sparse_vals.empty()) {
      diff = out.dense.max_abs_diff(base.dense);
    } else {
      for (std::size_t e = 0; e < out.sparse_vals.size(); ++e) {
        diff = std::max(diff,
                        std::abs(out.sparse_vals[e] - base.sparse_vals[e]));
      }
    }
    table.add_row({std::to_string(nt), std::to_string(stats.threads_used),
                   strfmt("%.4f", secs), strfmt("%.2fx", t1 / secs),
                   strfmt("%.2fx", host),
                   strfmt("%.0f%%", 100.0 * t1 / secs / nt),
                   strfmt("%.2f", stats.partition_imbalance),
                   strfmt("%.1e", diff)});
  }
  ThreadPool::set_global_threads(0);  // restore the default-sized pool
  table.add_note("root loop chunked by subtree nnz (nested second-level "
                 "split when small/skewed, stealing pool balances); outputs "
                 "must match the 1-thread row to 1e-12; host = the same "
                 "pool's speedup on a fixed compute batch, timed just "
                 "before the row");
  table.print(std::cout);
}

// Strong-scaling table over a skewed tensor: one root slice owns most of
// the nonzeros, so the static nnz-balanced chunking alone would serialize.
// The parts column shows the nested split carrying the region past the
// root extent, and the imbalance column the executed partition's skew.
void skew_scaling_table(const std::string& title,
                        const std::vector<int>& threads, int rank,
                        int reps, Rng& rng) {
  const std::int64_t heavy_j = 2048;
  const std::int64_t heavy_k = 256;
  CooTensor t({64, heavy_j, heavy_k});
  // ~95% of the nonzeros under root slice i=0; one nonzero elsewhere.
  for (std::int64_t j = 0; j < heavy_j; ++j) {
    for (std::int64_t k = 0; k < heavy_k; ++k) {
      if ((j * 131 + k * 17) % 5 == 0) {
        t.push_back({0, j, k}, rng.next_double() + 0.25);
      }
    }
  }
  for (std::int64_t i = 1; i < 64; ++i) {
    t.push_back({i, i % heavy_j, i % heavy_k}, 1.0);
  }
  t.sort_dedup();
  auto p = make_problem(mttkrp3_expr(), std::move(t),
                        {{"r", static_cast<std::int64_t>(rank)}}, rng);
  thread_scaling_table(title + strfmt(" nnz=%lld (~95%% in one root slice)",
                                      static_cast<long long>(p->sparse.nnz())),
                       *p, threads, reps);
}

/// Machine-readable rows for one scaling table (--json output). comm_s and
/// total_s are measured; model_comm_s and model_total_s price the same
/// collectives with the alpha-beta model.
struct ScalingJson {
  std::string figure;
  std::string kernel;
  struct Row {
    int ranks = 0;
    double max_local_s = 0, comm_s = 0, total_s = 0, speedup = 0,
           imbalance = 0;
    double model_comm_s = 0, model_total_s = 0;
    double allgather_s = 0, allreduce_s = 0;
    std::int64_t allgather_bytes = 0, allreduce_bytes = 0;
    int allgather_count = 0, allreduce_count = 0;
  };
  std::vector<Row> rows;
};

void scaling_table(const std::string& title, const Problem& p,
                   const std::vector<int>& ranks, int local_threads,
                   bool concurrent_ranks, int reps, ScalingJson* json) {
  Table table(title);
  table.set_header({"ranks", "max-local[s]", "allgather[s]",
                    "allreduce[s]", "comm[s]", "total[s]", "speedup",
                    "efficiency", "imbalance", "model-comm[s]",
                    "model-total[s]"});
  double t1 = 0;
  for (int r : ranks) {
    DistSpttn dist(p.bound, r);
    ShmemComm comm(r);
    // The run with the median total keeps every column from one run.
    std::vector<DistResult> runs;
    for (int i = 0; i < std::max(reps, 1); ++i) {
      runs.push_back(
          dist.run(comm, {}, nullptr, {}, local_threads, concurrent_ranks));
    }
    const auto mid =
        runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2);
    std::nth_element(runs.begin(), mid, runs.end(),
                     [](const DistResult& a, const DistResult& b) {
                       return a.time() < b.time();
                     });
    const DistResult& res = *mid;
    const CommBreakdown ag = res.breakdown(CollectiveKind::kAllgather);
    const CommBreakdown ar = res.breakdown(CollectiveKind::kAllreduce);
    if (r == ranks.front()) t1 = res.time();
    table.add_row({std::to_string(r), strfmt("%.4f", res.max_local_seconds),
                   strfmt("%.5f", ag.seconds), strfmt("%.5f", ar.seconds),
                   strfmt("%.5f", res.comm_seconds),
                   strfmt("%.4f", res.time()),
                   strfmt("%.2fx", t1 / res.time()),
                   strfmt("%.0f%%", 100.0 * t1 / res.time() /
                                        static_cast<double>(r) *
                                        static_cast<double>(ranks.front())),
                   strfmt("%.2f", res.imbalance),
                   strfmt("%.5f", res.comm_model_seconds),
                   strfmt("%.4f", res.model_time())});
    json->rows.push_back({r, res.max_local_seconds, res.comm_seconds,
                          res.time(), t1 / res.time(), res.imbalance,
                          res.comm_model_seconds, res.model_time(),
                          ag.seconds, ar.seconds, ag.bytes, ar.bytes,
                          ag.count, ar.count});
  }
  table.add_note("comm[s]: measured around real buffer movement (per-rank "
                 "factor replicas; tiled fold of the rank partials, or of "
                 "only the cut rows when ranks write their own rows in "
                 "place, whose allgather moves nothing); model-*: the same "
                 "collectives priced by the alpha-beta model (simulated; "
                 "the paper's methodology)");
  table.add_note("paper Fig. 8: near-linear scaling for all three kernels");
  table.print(std::cout);
}

void write_fig8_json(const std::string& path,
                     const std::vector<ScalingJson>& figs) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"bench_fig8_scaling\",\n  \"unit\": \"s\",\n"
     << "  \"figures\": [\n";
  for (std::size_t f = 0; f < figs.size(); ++f) {
    os << "    {\"figure\": \"" << figs[f].figure << "\", \"kernel\": \""
       << figs[f].kernel << "\", \"rows\": [\n";
    for (std::size_t i = 0; i < figs[f].rows.size(); ++i) {
      const auto& r = figs[f].rows[i];
      os << "      {\"ranks\": " << r.ranks
         << ", \"max_local_s\": " << strfmt("%.6f", r.max_local_s)
         << ", \"comm_s\": " << strfmt("%.6f", r.comm_s) << ", \"total_s\": "
         << strfmt("%.6f", r.total_s) << ", \"speedup\": "
         << strfmt("%.3f", r.speedup) << ", \"imbalance\": "
         << strfmt("%.3f", r.imbalance)
         << ", \"model_comm_s\": " << strfmt("%.6f", r.model_comm_s)
         << ", \"model_total_s\": " << strfmt("%.6f", r.model_total_s)
         << ",\n       \"allgather_s\": " << strfmt("%.6f", r.allgather_s)
         << ", \"allgather_bytes\": " << r.allgather_bytes
         << ", \"allgather_count\": " << r.allgather_count
         << ", \"allreduce_s\": " << strfmt("%.6f", r.allreduce_s)
         << ", \"allreduce_bytes\": " << r.allreduce_bytes
         << ", \"allreduce_count\": " << r.allreduce_count << "}"
         << (i + 1 < figs[f].rows.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (f + 1 < figs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_fig8_scaling");
  const auto* n3 = cli.add_int("n3", 512, "order-3 mode size (paper: 8192)");
  const auto* n4 = cli.add_int("n4", 96, "order-4 mode size (paper: 1024)");
  const auto* rank = cli.add_int("rank", 32, "dense rank R (paper: 32)");
  const auto* sparsity =
      cli.add_double("sparsity", 0.001, "nnz fraction (paper: 0.1%)");
  const auto* max_ranks = cli.add_int("max-ranks", 64, "largest rank count");
  const auto* max_threads = cli.add_int(
      "threads", 8, "largest shared-memory thread count (0 = skip)");
  const auto* local_threads = cli.add_int(
      "local-threads", 1, "pool lanes per simulated rank (hybrid mode)");
  const auto* concurrent_ranks = cli.add_bool(
      "concurrent-ranks", false,
      "run simulated ranks concurrently on the pool (bit-identical "
      "results, faster simulation; per-rank seconds then time-share "
      "cores, so leave off for timing-faithful rows)");
  const auto* skew = cli.add_bool(
      "skew", true, "also run the skewed-root MTTKRP scaling table");
  const auto* reps = cli.add_int("reps", 3, "timing repetitions per row");
  const auto* seed = cli.add_int("seed", 7, "generator seed");
  const std::string* json =
      cli.add_string("json", "BENCH_fig8.json",
                     "output path for machine-readable rows ('' = skip)");
  cli.parse(argc, argv);
  std::vector<ScalingJson> json_figs;

  std::vector<int> ranks;
  for (int r = 1; r <= *max_ranks; r *= 2) ranks.push_back(r);
  std::vector<int> threads;
  for (int t = 1; t <= *max_threads; t *= 2) threads.push_back(t);

  Rng rng(static_cast<std::uint64_t>(*seed));
  const auto nnz3 = static_cast<std::int64_t>(
      static_cast<double>(*n3) * static_cast<double>(*n3) *
      static_cast<double>(*n3) * *sparsity);
  const auto nnz4 = static_cast<std::int64_t>(
      static_cast<double>(*n4) * static_cast<double>(*n4) *
      static_cast<double>(*n4) * static_cast<double>(*n4) * *sparsity);

  {
    CooTensor t = random_coo({*n3, *n3, *n3}, nnz3, rng);
    auto p = make_problem(ttmc3_expr(), std::move(t),
                          {{"r", *rank}, {"s", *rank}}, rng);
    scaling_table(strfmt("Figure 8(a) — TTMc strong scaling, order-3 "
                         "N=%lld nnz=%lld R=%lld",
                         static_cast<long long>(*n3),
                         static_cast<long long>(p->sparse.nnz()),
                         static_cast<long long>(*rank)),
                  *p, ranks, *local_threads, *concurrent_ranks,
                  static_cast<int>(*reps),
                  &json_figs.emplace_back(ScalingJson{"8a", "ttmc3", {}}));
  }
  {
    CooTensor t = random_coo({*n4, *n4, *n4, *n4}, nnz4, rng);
    auto p = make_problem(mttkrp4_expr(), std::move(t), {{"r", *rank}}, rng);
    scaling_table(strfmt("Figure 8(b) — MTTKRP strong scaling, order-4 "
                         "N=%lld nnz=%lld R=%lld",
                         static_cast<long long>(*n4),
                         static_cast<long long>(p->sparse.nnz()),
                         static_cast<long long>(*rank)),
                  *p, ranks, *local_threads, *concurrent_ranks,
                  static_cast<int>(*reps),
                  &json_figs.emplace_back(ScalingJson{"8b", "mttkrp4", {}}));
    if (!threads.empty() && threads.back() > 1) {
      thread_scaling_table(
          strfmt("Figure 8(b') — MTTKRP shared-memory thread scaling, "
                 "order-4 N=%lld nnz=%lld R=%lld",
                 static_cast<long long>(*n4),
                 static_cast<long long>(p->sparse.nnz()),
                 static_cast<long long>(*rank)),
          *p, threads, *reps);
    }
  }
  {
    CooTensor t = random_coo({*n3, *n3, *n3}, nnz3, rng);
    auto p = make_problem(tttp3_expr(), std::move(t), {{"r", *rank}}, rng);
    scaling_table(strfmt("Figure 8(c) — TTTP strong scaling, order-3 "
                         "N=%lld nnz=%lld R=%lld",
                         static_cast<long long>(*n3),
                         static_cast<long long>(p->sparse.nnz()),
                         static_cast<long long>(*rank)),
                  *p, ranks, *local_threads, *concurrent_ranks,
                  static_cast<int>(*reps),
                  &json_figs.emplace_back(ScalingJson{"8c", "tttp3", {}}));
    if (!threads.empty() && threads.back() > 1) {
      thread_scaling_table(
          strfmt("Figure 8(c') — TTTP shared-memory thread scaling, "
                 "order-3 N=%lld nnz=%lld R=%lld",
                 static_cast<long long>(*n3),
                 static_cast<long long>(p->sparse.nnz()),
                 static_cast<long long>(*rank)),
          *p, threads, *reps);
    }
  }
  if (*skew && !threads.empty() && threads.back() > 1) {
    skew_scaling_table(
        strfmt("Figure 8(d') — skewed-root MTTKRP thread scaling, R=%lld",
               static_cast<long long>(*rank)),
        threads, static_cast<int>(*rank), static_cast<int>(*reps), rng);
  }
  if (!json->empty()) write_fig8_json(*json, json_figs);
  return 0;
}
