#include "serve/kernel_cache.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstring>
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
  std::uint64_t tol_bits = 0;
  static_assert(sizeof(tol_bits) == sizeof(options.flop_group_tolerance));
  std::memcpy(&tol_bits, &options.flop_group_tolerance, sizeof(tol_bits));
  h = hash_mix(h ^ tol_bits);
  h = hash_mix(h ^ static_cast<std::uint64_t>(options.cache_d));
  h = hash_mix(h ^ (options.sparse_aware_cache ? 4u : 0u));
  h = hash_mix(h ^ static_cast<std::uint64_t>(options.max_paths_searched));
  // search_threads and verify deliberately excluded: the parallel search
  // returns a plan identical to the sequential one and verification never
  // changes the plan, so neither may fragment the cache.
  //
  // The anytime fields follow the same rule from the other side: under the
  // exact strategy they are inert (the plan cannot depend on them), so they
  // are excluded and the exact-options hash is byte-identical to the
  // pre-strategy one — no cache fragmentation, and persisted exact
  // artifacts keyed by the old hash stay valid. Under the anytime strategy
  // the budget, seed, and search knobs select the plan, so they are mixed
  // in: two sessions planning the same kernel under different budgets must
  // not serve each other's plans.
  if (options.strategy != StrategyKind::kExact) {
    h = hash_mix(h ^ 0xa17e11117e5eedULL);
    h = hash_mix(h ^ static_cast<std::uint64_t>(options.strategy));
    h = hash_mix(h ^ static_cast<std::uint64_t>(options.budget.max_millis));
    h = hash_mix(h ^ static_cast<std::uint64_t>(options.budget.max_nodes));
    h = hash_mix(h ^ options.anytime_seed);
    h = hash_mix(h ^ static_cast<std::uint64_t>(options.anytime_restarts));
    h = hash_mix(h ^ static_cast<std::uint64_t>(options.anytime_beam));
  }
  return h;
}

KernelSignature make_signature(const Kernel& kernel,
                               const SparsityStats& stats,
                               const PlannerOptions& options) {
  SPTTN_CHECK_MSG(kernel.dims_bound(),
                  "signature needs bound index dimensions");
  KernelSignature sig;
  sig.expr = kernel.to_string();
  sig.extents.reserve(static_cast<std::size_t>(kernel.num_indices()));
  for (int id = 0; id < kernel.num_indices(); ++id) {
    sig.extents.push_back(kernel.index_dim(id));
  }
  sig.sparsity_fingerprint = stats.fingerprint();
  sig.options_hash = planner_options_hash(options);
  return sig;
}

std::size_t estimate_entry_bytes(const KernelSignature& sig,
                                 const Kernel& kernel, const Plan& plan,
                                 const FusedExecutor* exec) {
  // Deliberately an estimate: the point is a byte budget that tracks the
  // actual heavy parts (the per-execution buffer working set dominates for
  // large-intermediate kernels; structure metadata dominates for tiny
  // ones), not an allocator-exact audit.
  std::size_t b = sizeof(KernelCache::Entry);
  b += sig.expr.size() + sig.extents.size() * sizeof(std::int64_t);
  // Kernel: tensor refs (name + index lists) and the index name table.
  const auto ref_bytes = [](const TensorRef& r) {
    return sizeof(TensorRef) + r.name.size() + r.idx.size() * sizeof(int);
  };
  b += ref_bytes(kernel.output());
  for (const TensorRef& in : kernel.inputs()) b += ref_bytes(in);
  b += static_cast<std::size_t>(kernel.num_indices()) *
       (sizeof(std::string) + sizeof(std::int64_t) + 8);
  // Plan: path terms, loop order, tree nodes/actions/buffers.
  b += plan.path.terms.size() * sizeof(PathTerm);
  for (const std::vector<int>& o : plan.order) {
    b += sizeof(std::vector<int>) + o.size() * sizeof(int);
  }
  std::size_t actions = plan.tree.top().size();
  for (const LoopTree::Node& n : plan.tree.nodes()) {
    b += sizeof(LoopTree::Node) + n.body.size() * sizeof(LoopTree::Action);
    actions += n.body.size();
  }
  b += plan.tree.top().size() * sizeof(LoopTree::Action);
  for (const BufferSpec& spec : plan.tree.buffers()) {
    b += sizeof(BufferSpec) +
         spec.indices.size() * sizeof(int) +
         spec.dims.size() * sizeof(std::int64_t);
  }
  // Compiled executor: the exact program footprint when the caller hands
  // us the compiled executor (FusedExecutor::program_bytes); otherwise the
  // historical per-action heuristic (roughly a cache line per
  // loop/action). Plus the intermediate-buffer storage every execution
  // materializes.
  if (exec != nullptr) {
    b += exec->program_bytes();
  } else {
    b += (plan.tree.nodes().size() + actions) * 64;
  }
  b += static_cast<std::size_t>(plan.tree.total_buffer_size()) *
       sizeof(double);
  return b;
}

namespace {

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

using Clock = std::chrono::steady_clock;

}  // namespace

struct KernelCache::Impl {
  mutable std::mutex m;
  Config config;
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

  bool pass_through() const {
    return config.capacity == 0 || config.max_bytes == 0;
  }

  void erase_resident(std::list<std::shared_ptr<const Entry>>::iterator it) {
    counters.bytes_resident -= (*it)->bytes;
    by_sig.erase((*it)->signature);
    lru.erase(it);
  }

  /// Drop every entry past its TTL. Caller holds m.
  void sweep_expired(Clock::time_point now) {
    if (config.ttl.count() <= 0) return;
    for (auto it = lru.begin(); it != lru.end();) {
      if (now - (*it)->inserted > config.ttl) {
        counters.expired += 1;
        erase_resident(it++);
      } else {
        ++it;
      }
    }
  }

  /// Resident probe with TTL enforcement and recency refresh. Caller
  /// holds m; does not touch hit/miss counters.
  std::shared_ptr<const Entry> find_resident(const KernelSignature& sig,
                                             Clock::time_point now) {
    const auto it = by_sig.find(sig);
    if (it == by_sig.end()) return nullptr;
    if (config.ttl.count() > 0 && now - (*it->second)->inserted > config.ttl) {
      counters.expired += 1;
      erase_resident(it->second);
      return nullptr;
    }
    lru.splice(lru.begin(), lru, it->second);  // refresh recency
    return *it->second;
  }

  /// Publish `entry`, evicting expired entries and LRU victims beyond the
  /// entry-count and byte budgets. Returns the resident entry for the
  /// signature (the existing one when a concurrent planner already
  /// published it — first writer wins, the loser's work is dropped rather
  /// than invalidating handed-out pointers). On a pass-through cache (or
  /// for an entry that alone exceeds the byte budget) the entry is
  /// returned unpublished: plan, verify, serve — never insert.
  std::shared_ptr<const Entry> publish(std::shared_ptr<Entry> entry,
                                       bool replace) {
    std::lock_guard<std::mutex> lk(m);
    if (pass_through() || entry->bytes > config.max_bytes) return entry;
    const auto now = Clock::now();
    sweep_expired(now);
    const auto it = by_sig.find(entry->signature);
    if (it != by_sig.end()) {
      if (!replace) {
        lru.splice(lru.begin(), lru, it->second);  // refresh recency
        return *it->second;
      }
      erase_resident(it->second);
    }
    entry->inserted = now;
    counters.inserts += 1;
    counters.bytes_resident += entry->bytes;
    lru.push_front(std::move(entry));
    by_sig[lru.front()->signature] = lru.begin();
    while (lru.size() > config.capacity ||
           counters.bytes_resident > config.max_bytes) {
      counters.evictions += 1;
      erase_resident(std::prev(lru.end()));
    }
    return lru.front();
  }
};

KernelCache::KernelCache(std::size_t capacity)
    : impl_(std::make_unique<Impl>()) {
  impl_->config.capacity = capacity;
}

KernelCache::KernelCache(const Config& config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
}

KernelCache::~KernelCache() = default;

std::shared_ptr<const KernelCache::Entry> KernelCache::lookup(
    const KernelSignature& sig) {
  std::lock_guard<std::mutex> lk(impl_->m);
  auto hit = impl_->find_resident(sig, Clock::now());
  if (hit == nullptr) {
    impl_->counters.misses += 1;
  } else {
    impl_->counters.hits += 1;
  }
  return hit;
}

std::shared_ptr<const KernelCache::Entry> KernelCache::get_or_plan(
    const Kernel& kernel, const SparsityStats& stats,
    const PlannerOptions& options, bool* was_cached) {
  KernelSignature sig = make_signature(kernel, stats, options);
  std::shared_ptr<Impl::Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    if (auto hit = impl_->find_resident(sig, Clock::now())) {
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
    entry->bytes = estimate_entry_bytes(entry->signature, kernel,
                                        entry->plan, entry->exec.get());
    published = impl_->publish(std::move(entry), /*replace=*/false);
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

std::shared_ptr<const KernelCache::Entry> KernelCache::put(
    KernelSignature sig, const Kernel& kernel, Plan plan) {
  // Admission gate: put() accepts externally produced plans (autotuners,
  // deserialized artifacts), so the structural rules must pass before the
  // plan is published; see verify_external_plan for why the cost rules
  // stay planning-time checks.
  const VerifyReport report = verify_external_plan(kernel, plan);
  SPTTN_CHECK_MSG(report.ok(), "kernel cache rejects unverifiable plan for "
                                   << kernel.to_string() << ":\n"
                                   << report.to_string());
  auto entry = std::make_shared<Entry>();
  entry->signature = std::move(sig);
  entry->kernel = kernel;
  entry->plan = std::move(plan);
  entry->exec = std::make_shared<FusedExecutor>(kernel, entry->plan);
  entry->bytes = estimate_entry_bytes(entry->signature, kernel, entry->plan,
                                      entry->exec.get());
  return impl_->publish(std::move(entry), /*replace=*/true);
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
            hex16(entry->signature.sparsity_fingerprint)}});
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
    if (impl_->pass_through()) {
      report.errors.push_back(
          "cache is pass-through (zero capacity or byte budget); "
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

      KernelSignature sig;
      sig.expr = entry->kernel.to_string();
      sig.extents.reserve(
          static_cast<std::size_t>(entry->kernel.num_indices()));
      for (int id = 0; id < entry->kernel.num_indices(); ++id) {
        sig.extents.push_back(entry->kernel.index_dim(id));
      }
      sig.sparsity_fingerprint = sig_fingerprint;
      sig.options_hash = options_hash;
      entry->signature = std::move(sig);
      entry->bytes = estimate_entry_bytes(entry->signature, entry->kernel,
                                          entry->plan, entry->exec.get());
      impl_->publish(std::move(entry), /*replace=*/false);
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

std::size_t KernelCache::capacity() const { return impl_->config.capacity; }

const KernelCache::Config& KernelCache::config() const {
  return impl_->config;
}

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
