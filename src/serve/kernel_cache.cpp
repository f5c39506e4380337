#include "serve/kernel_cache.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analysis/plan_verifier.hpp"
#include "core/plan_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace spttn {

std::uint64_t KernelSignature::hash() const {
  std::uint64_t h = 0x452821e638d01377ULL;
  for (char c : expr) h = hash_mix(h ^ static_cast<std::uint64_t>(c));
  h = hash_mix(h ^ static_cast<std::uint64_t>(sparse_input));
  for (std::int64_t e : extents) {
    h = hash_mix(h ^ static_cast<std::uint64_t>(e));
  }
  h = hash_mix(h ^ sparsity_fingerprint);
  h = hash_mix(h ^ options_hash);
  return h;
}

std::uint64_t planner_options_hash(const PlannerOptions& options) {
  std::uint64_t h = 0xbe5466cf34e90c6cULL;
  h = hash_mix(h ^ static_cast<std::uint64_t>(options.cost));
  h = hash_mix(h ^ static_cast<std::uint64_t>(options.buffer_dim_bound));
  h = hash_mix(h ^ (options.allow_bound_relaxation ? 1u : 0u));
  h = hash_mix(h ^ (options.restrict_csf_order ? 2u : 0u));
  h = hash_mix(h ^ (options.sparse_aware_cache ? 4u : 0u));
  // verify deliberately excluded: verification never changes the plan, so
  // it may not fragment the cache. The node budget can change the plan, so
  // two sessions planning one kernel under different budgets must not
  // serve each other's plans.
  h = hash_mix(h ^ static_cast<std::uint64_t>(options.budget.max_nodes));
  return h;
}

namespace {

/// The signature of `kernel` (dims bound) keyed under an already known
/// fingerprint and options hash; load_dir rebuilds keys this way from an
/// artifact's kernel and meta.
KernelSignature signature_of(const Kernel& kernel,
                             std::uint64_t sparsity_fingerprint,
                             std::uint64_t options_hash) {
  SPTTN_CHECK_MSG(kernel.dims_bound(),
                  "signature needs bound index dimensions");
  KernelSignature sig;
  sig.expr = kernel.to_string();
  sig.sparse_input = kernel.sparse_input();
  sig.extents.reserve(static_cast<std::size_t>(kernel.num_indices()));
  for (int id = 0; id < kernel.num_indices(); ++id) {
    sig.extents.push_back(kernel.index_dim(id));
  }
  sig.sparsity_fingerprint = sparsity_fingerprint;
  sig.options_hash = options_hash;
  return sig;
}

struct SigHash {
  std::size_t operator()(const KernelSignature& s) const {
    return static_cast<std::size_t>(s.hash());
  }
};

std::string hex16(std::uint64_t v) {
  return strfmt("%016llx", static_cast<unsigned long long>(v));
}

std::uint64_t parse_hex_or_throw(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  SPTTN_CHECK_MSG(!s.empty() && ec == std::errc() && p == s.data() + s.size(),
                  "malformed or missing " << what << " '" << s << "'");
  return v;
}

}  // namespace

KernelSignature make_signature(const Kernel& kernel,
                               const SparsityStats& stats,
                               const PlannerOptions& options) {
  return signature_of(kernel, stats.fingerprint(),
                      planner_options_hash(options));
}

struct KernelCache::Impl {
  mutable std::mutex m;
  std::size_t capacity = 0;
  /// MRU-first recency list of resident entries.
  std::list<std::shared_ptr<const Entry>> lru;
  std::unordered_map<KernelSignature,
                     std::list<std::shared_ptr<const Entry>>::iterator,
                     SigHash>
      by_sig;
  Counters counters;

  /// One in-flight planner search; concurrent misses on the signature wait
  /// here instead of running duplicate searches.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const Entry> result;
    std::exception_ptr error;
  };
  std::unordered_map<KernelSignature, std::shared_ptr<Flight>, SigHash>
      flights;

  void erase_resident(std::list<std::shared_ptr<const Entry>>::iterator it) {
    by_sig.erase((*it)->signature);
    lru.erase(it);
  }

  /// Resident probe with recency refresh. Caller holds m; does not touch
  /// hit/miss counters.
  std::shared_ptr<const Entry> find_resident(const KernelSignature& sig) {
    const auto it = by_sig.find(sig);
    if (it == by_sig.end()) return nullptr;
    lru.splice(lru.begin(), lru, it->second);  // refresh recency
    return *it->second;
  }

  /// Publish `entry`, evicting LRU victims beyond the capacity. Returns
  /// the resident entry for the signature (the existing one when a
  /// concurrent planner already published it — first writer wins, the
  /// loser's work is dropped rather than invalidating handed-out
  /// pointers). On a pass-through cache the entry is returned
  /// unpublished: plan, verify, serve — never insert.
  std::shared_ptr<const Entry> publish(std::shared_ptr<Entry> entry) {
    std::lock_guard<std::mutex> lk(m);
    if (capacity == 0) return entry;
    const auto it = by_sig.find(entry->signature);
    if (it != by_sig.end()) {
      lru.splice(lru.begin(), lru, it->second);  // refresh recency
      return *it->second;
    }
    counters.inserts += 1;
    lru.push_front(std::move(entry));
    by_sig[lru.front()->signature] = lru.begin();
    while (lru.size() > capacity) {
      counters.evictions += 1;
      erase_resident(std::prev(lru.end()));
    }
    return lru.front();
  }
};

KernelCache::KernelCache(std::size_t capacity)
    : impl_(std::make_unique<Impl>()) {
  impl_->capacity = capacity;
}

KernelCache::~KernelCache() = default;

std::shared_ptr<const KernelCache::Entry> KernelCache::get_or_plan(
    const Kernel& kernel, const SparsityStats& stats,
    const PlannerOptions& options, bool* was_cached) {
  KernelSignature sig = make_signature(kernel, stats, options);
  std::shared_ptr<Impl::Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    if (auto hit = impl_->find_resident(sig)) {
      impl_->counters.hits += 1;
      if (was_cached != nullptr) *was_cached = true;
      return hit;
    }
    impl_->counters.misses += 1;
    auto [it, fresh] = impl_->flights.try_emplace(sig, nullptr);
    if (fresh) {
      it->second = std::make_shared<Impl::Flight>();
      leader = true;
      impl_->counters.planned += 1;
    } else {
      impl_->counters.coalesced += 1;
    }
    flight = it->second;
  }

  if (!leader) {
    // Single-flight: another thread is already searching this signature;
    // wait for its published entry instead of running a duplicate search.
    std::unique_lock<std::mutex> flk(flight->m);
    flight->cv.wait(flk, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    if (was_cached != nullptr) *was_cached = true;
    return flight->result;
  }

  if (was_cached != nullptr) *was_cached = false;
  // Leader: plan and compile outside the cache lock so misses on different
  // kernels still search in parallel.
  std::shared_ptr<const Entry> published;
  try {
    auto entry = std::make_shared<Entry>();
    entry->signature = sig;
    entry->kernel = kernel;
    entry->plan = make_plan(kernel, stats, options);
    entry->exec = std::make_shared<FusedExecutor>(kernel, entry->plan);
    // Admission gate: beyond make_plan's own verification this
    // cross-checks the verifier's region classification against the
    // compiled executor's locality analysis — entries are handed to
    // concurrent callers, so a plan the two analyses disagree on must
    // never be published.
    const VerifyReport report = PlanVerifier(kernel, options, &stats)
                                    .verify(entry->plan, *entry->exec);
    SPTTN_CHECK_MSG(report.ok(),
                    "kernel cache rejects unverifiable plan for "
                        << kernel.to_string() << ":\n"
                        << report.to_string());
    published = impl_->publish(std::move(entry));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(impl_->m);
      impl_->flights.erase(sig);
    }
    {
      std::lock_guard<std::mutex> flk(flight->m);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->flights.erase(sig);
  }
  {
    std::lock_guard<std::mutex> flk(flight->m);
    flight->result = published;
    flight->done = true;
  }
  flight->cv.notify_all();
  return published;
}

std::shared_ptr<const KernelCache::Entry> KernelCache::get_or_plan(
    const BoundKernel& bound, const PlannerOptions& options,
    bool* was_cached) {
  return get_or_plan(bound.kernel, bound.stats, options, was_cached);
}

std::string KernelCache::DirReport::to_string() const {
  std::ostringstream os;
  os << processed << " artifact(s) processed, " << rejected << " rejected";
  for (const std::string& e : errors) os << "\n  " << e;
  return os.str();
}

KernelCache::DirReport KernelCache::save_dir(const std::string& dir) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  SPTTN_CHECK_MSG(!ec, "cannot create plan cache dir '" << dir
                       << "': " << ec.message());
  // Snapshot the resident set; serialization and I/O run outside the lock.
  std::vector<std::shared_ptr<const Entry>> snapshot;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    snapshot.assign(impl_->lru.begin(), impl_->lru.end());
  }
  DirReport report;
  for (const auto& entry : snapshot) {
    const fs::path path =
        fs::path(dir) / ("plan_" + hex16(entry->signature.hash()) + ".plan");
    try {
      const std::string text = serialize_plan(
          entry->kernel, entry->plan,
          {{"options_hash", hex16(entry->signature.options_hash)},
           {"sparsity_fingerprint",
            hex16(entry->signature.sparsity_fingerprint)},
           {"cost_model", std::to_string(kCostModelVersion)}});
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      SPTTN_CHECK_MSG(os.good(), "cannot open '" << path.string()
                                                 << "' for writing");
      os << text;
      os.flush();
      SPTTN_CHECK_MSG(os.good(), "write to '" << path.string() << "' failed");
      report.processed += 1;
    } catch (const std::exception& ex) {
      report.rejected += 1;
      report.errors.push_back(path.string() + ": " + ex.what());
    }
  }
  return report;
}

KernelCache::DirReport KernelCache::load_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  DirReport report;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    if (impl_->capacity == 0) {
      report.errors.push_back(
          "cache is pass-through (zero capacity); "
          "no artifact can become resident");
      return report;
    }
  }
  std::error_code ec;
  std::vector<fs::path> files;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".plan") {
      files.push_back(it->path());
    }
  }
  if (ec) {
    report.errors.push_back("cannot read plan cache dir '" + dir +
                            "': " + ec.message());
    return report;
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    try {
      std::ifstream is(path, std::ios::binary);
      SPTTN_CHECK_MSG(is.good(), "cannot open '" << path.string() << "'");
      std::ostringstream buf;
      buf << is.rdbuf();
      LoadedPlan loaded = deserialize_plan(buf.str());

      const std::uint64_t sig_fingerprint = parse_hex_or_throw(
          loaded.meta_value("sparsity_fingerprint"), "sparsity_fingerprint");
      const std::uint64_t options_hash =
          parse_hex_or_throw(loaded.meta_value("options_hash"),
                             "options_hash");
      // Sparsity-fingerprint consistency: the structure the artifact is
      // keyed under must be the structure the plan was derived from. A
      // stale artifact (re-keyed, or edited) is rejected here; the
      // executor's runtime guard would also refuse it, but a load-time
      // rejection keeps poisoned entries out of the cache entirely.
      SPTTN_CHECK_MSG(
          sig_fingerprint == loaded.plan.sparsity_fingerprint,
          "sparsity fingerprint mismatch: artifact keyed for "
              << hex16(sig_fingerprint) << " but the plan was derived from "
              << hex16(loaded.plan.sparsity_fingerprint));

      // Cost-model identity: a nest chosen by an older model is a miss, so
      // the kernel re-plans under the current one.
      const std::string model = loaded.meta_value("cost_model");
      SPTTN_CHECK_MSG(model == std::to_string(kCostModelVersion),
                      "cost model mismatch: artifact stamped cost_model "
                          << (model.empty() ? "(none)" : model)
                          << ", planner is cost_model " << kCostModelVersion);

      // Structural verification BEFORE the executor ever sees the plan: a
      // malformed tree yields diagnostics from the verifier, never UB in
      // the executor's compile step.
      const VerifyReport structural =
          verify_external_plan(loaded.kernel, loaded.plan);
      SPTTN_CHECK_MSG(structural.ok(), "plan verification failed:\n"
                                           << structural.to_string());

      auto entry = std::make_shared<Entry>();
      entry->kernel = loaded.kernel;
      entry->plan = std::move(loaded.plan);
      entry->exec =
          std::make_shared<FusedExecutor>(entry->kernel, entry->plan);
      const VerifyReport cross = verify_external_plan(
          entry->kernel, entry->plan, entry->exec.get());
      SPTTN_CHECK_MSG(cross.ok(), "executor cross-check failed:\n"
                                      << cross.to_string());

      entry->signature =
          signature_of(entry->kernel, sig_fingerprint, options_hash);
      impl_->publish(std::move(entry));
      report.processed += 1;
    } catch (const std::exception& ex) {
      report.rejected += 1;
      report.errors.push_back(path.string() + ": " + ex.what());
    }
  }
  return report;
}

KernelCache::Counters KernelCache::counters() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  Counters c = impl_->counters;
  c.entries = impl_->lru.size();
  return c;
}

std::size_t KernelCache::capacity() const { return impl_->capacity; }

void KernelCache::clear() {
  std::lock_guard<std::mutex> lk(impl_->m);
  impl_->lru.clear();
  impl_->by_sig.clear();
  impl_->counters = Counters{};
}

KernelCache& KernelCache::global() {
  static KernelCache cache;
  return cache;
}

Plan plan_kernel(const BoundKernel& bound, const PlannerOptions& options,
                 KernelCache& cache) {
  return cache.get_or_plan(bound, options)->plan;
}

void run_plan(const BoundKernel& bound, KernelCache& cache,
              DenseTensor* out_dense, std::span<double> out_sparse,
              int num_threads, const PlannerOptions& options) {
  const auto entry = cache.get_or_plan(bound, options);
  ExecArgs args;
  args.sparse = &bound.csf;
  args.dense = bound.dense;
  args.out_dense = out_dense;
  args.out_sparse = out_sparse;
  args.num_threads = num_threads;
  entry->exec->execute(args);
}

}  // namespace spttn
