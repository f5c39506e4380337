// Serving-layer semantics: KernelCache keying (hit after identical bind,
// miss on changed extents / sparsity fingerprint / options), bit-identical
// cached-vs-fresh execution (sequential and threaded), LRU eviction, the
// stale-stats fingerprint guard, Session behavior (prepare memoization,
// value rewrites, sparse outputs), and concurrent run() — the latter is
// part of the TSan CI job's test list.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_io.hpp"
#include "exec/reference.hpp"
#include "serve/kernel_cache.hpp"
#include "serve/session.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace spttn {
namespace {

using testing::Instance;
using testing::KernelCase;
using testing::ScopedLanes;
using testing::make_instance;
using testing::paper_kernels;

const KernelCase& kernel_case(const std::string& name) {
  static const std::vector<KernelCase> cases = paper_kernels();
  for (const auto& kc : cases) {
    if (kc.name == name) return kc;
  }
  SPTTN_CHECK_MSG(false, "unknown kernel case " << name);
  return cases.front();
}

TEST(KernelSignature, EqualityAndHashTrackInputs) {
  auto inst = make_instance(kernel_case("mttkrp3"), 11);
  const PlannerOptions options;
  const KernelSignature a =
      make_signature(inst->bound.kernel, inst->bound.stats, options);
  const KernelSignature b =
      make_signature(inst->bound.kernel, inst->bound.stats, options);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());

  // Different planner options that change the plan => different signature.
  PlannerOptions other = options;
  other.buffer_dim_bound = 3;
  const KernelSignature c =
      make_signature(inst->bound.kernel, inst->bound.stats, other);
  EXPECT_NE(a, c);

  // Same text, extents and tensor, but the other input is sparse: a
  // different kernel, so a different signature.
  Rng rng(11);
  const CooTensor t = random_coo({6, 6}, 20, rng);
  const DenseTensor d = random_dense({6, 6}, rng);
  const std::string expr = "C(i,j) = A(i,k)*B(k,j)";
  const BoundKernel a_sparse = spttn::bind(expr, t, {&d});
  const BoundKernel b_sparse = spttn::bind(expr, t, {&d}, "B");
  const KernelSignature sa =
      make_signature(a_sparse.kernel, a_sparse.stats, options);
  const KernelSignature sb =
      make_signature(b_sparse.kernel, b_sparse.stats, options);
  EXPECT_EQ(sa.expr, sb.expr);
  EXPECT_EQ(sa.extents, sb.extents);
  EXPECT_NE(sa, sb);
  EXPECT_NE(sa.hash(), sb.hash());
}

TEST(KernelCache, HitAfterIdenticalBind) {
  auto inst = make_instance(kernel_case("mttkrp3"), 12);
  KernelCache cache;
  bool was_cached = true;
  const auto first = cache.get_or_plan(inst->bound, {}, &was_cached);
  EXPECT_FALSE(was_cached);

  // Re-bind the same tensors from scratch: same structure, same signature.
  std::vector<const DenseTensor*> ptrs;
  for (const auto& f : inst->factors) ptrs.push_back(&f);
  const BoundKernel rebound =
      spttn::bind(kernel_case("mttkrp3").expr, inst->sparse, ptrs);
  const auto second = cache.get_or_plan(rebound, {}, &was_cached);
  EXPECT_TRUE(was_cached);
  EXPECT_EQ(first.get(), second.get());  // the same resident entry

  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(KernelCache, MissOnChangedExtents) {
  const KernelCase& kc = kernel_case("mttkrp3");
  auto inst = make_instance(kc, 13);
  KernelCache cache;
  (void)cache.get_or_plan(inst->bound);

  // Same expression and sparse tensor, wider rank r: extents differ.
  Rng rng(99);
  std::vector<DenseTensor> wide;
  Kernel k = Kernel::parse(kc.expr);
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i == k.sparse_input()) continue;
    std::vector<std::int64_t> dims;
    for (int id : k.input(i).idx) {
      const std::string& n = k.index_name(id);
      dims.push_back(n == "r" ? 7 : kc.dim_of(n));
    }
    wide.push_back(random_dense(dims, rng));
  }
  std::vector<const DenseTensor*> ptrs;
  for (const auto& f : wide) ptrs.push_back(&f);
  const BoundKernel rebound = spttn::bind(kc.expr, inst->sparse, ptrs);
  bool was_cached = true;
  (void)cache.get_or_plan(rebound, {}, &was_cached);
  EXPECT_FALSE(was_cached);
  EXPECT_EQ(cache.counters().entries, 2u);
}

TEST(KernelCache, MissOnChangedSparsityFingerprint) {
  const KernelCase& kc = kernel_case("mttkrp3");
  auto inst = make_instance(kc, 14);
  KernelCache cache;
  (void)cache.get_or_plan(inst->bound);

  // Same dims and nnz, one coordinate moved: structure differs.
  CooTensor moved(inst->sparse.dims());
  for (std::int64_t e = 0; e < inst->sparse.nnz(); ++e) {
    auto c = std::vector<std::int64_t>(inst->sparse.coord(e).begin(),
                                       inst->sparse.coord(e).end());
    if (e == 0) c[0] = (c[0] + 1) % inst->sparse.dim(0);
    moved.push_back(c, inst->sparse.value(e));
  }
  moved.sort_dedup();
  if (moved.nnz() != inst->sparse.nnz()) {
    GTEST_SKIP() << "coordinate move collided; structure not comparable";
  }
  std::vector<const DenseTensor*> ptrs;
  for (const auto& f : inst->factors) ptrs.push_back(&f);
  const BoundKernel rebound = spttn::bind(kc.expr, moved, ptrs);
  bool was_cached = true;
  (void)cache.get_or_plan(rebound, {}, &was_cached);
  EXPECT_FALSE(was_cached);
  EXPECT_EQ(cache.counters().entries, 2u);
}

TEST(KernelCache, CachedExecutionBitIdenticalToFresh) {
  // Sequential and threaded: the cached compiled nest must reproduce a
  // freshly planned execution bit for bit.
  for (const char* name : {"mttkrp3", "ttmc3", "tttp3"}) {
    auto inst = make_instance(kernel_case(name), 15);
    const bool sparse_out = inst->bound.kernel.output_is_sparse();

    DenseTensor fresh_dense, cached_dense, threaded_dense;
    std::vector<double> fresh_sparse, cached_sparse, threaded_sparse;
    if (sparse_out) {
      fresh_sparse.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
      cached_sparse = threaded_sparse = fresh_sparse;
    } else {
      fresh_dense = make_output(inst->bound);
      cached_dense = make_output(inst->bound);
      threaded_dense = make_output(inst->bound);
    }

    const Plan fresh_plan = plan_kernel(inst->bound);
    run_plan(inst->bound, fresh_plan, sparse_out ? nullptr : &fresh_dense,
             fresh_sparse);

    KernelCache cache;
    run_plan(inst->bound, cache, sparse_out ? nullptr : &cached_dense,
             cached_sparse);
    ASSERT_EQ(cache.counters().misses, 1u);
    {
      ScopedLanes lanes(4);
      run_plan(inst->bound, cache, sparse_out ? nullptr : &threaded_dense,
               threaded_sparse, /*num_threads=*/4);
    }
    EXPECT_GE(cache.counters().hits, 1u) << name;

    if (sparse_out) {
      for (std::size_t e = 0; e < fresh_sparse.size(); ++e) {
        ASSERT_EQ(std::memcmp(&fresh_sparse[e], &cached_sparse[e],
                              sizeof(double)), 0)
            << name << " entry " << e;
        ASSERT_EQ(std::memcmp(&fresh_sparse[e], &threaded_sparse[e],
                              sizeof(double)), 0)
            << name << " entry " << e << " (threaded)";
      }
    } else {
      for (std::int64_t i = 0; i < fresh_dense.size(); ++i) {
        ASSERT_EQ(std::memcmp(&fresh_dense.data()[i],
                              &cached_dense.data()[i], sizeof(double)), 0)
            << name << " elem " << i;
        ASSERT_EQ(std::memcmp(&fresh_dense.data()[i],
                              &threaded_dense.data()[i], sizeof(double)), 0)
            << name << " elem " << i << " (threaded)";
      }
    }
  }
}

TEST(KernelCache, LruEvictionAtCapacity) {
  auto a = make_instance(kernel_case("mttkrp3"), 16);
  auto b = make_instance(kernel_case("ttmc3"), 17);
  auto c = make_instance(kernel_case("tttp3"), 18);
  KernelCache cache(/*capacity=*/2);
  (void)cache.get_or_plan(a->bound);
  (void)cache.get_or_plan(b->bound);
  (void)cache.get_or_plan(a->bound);  // refresh a => b is LRU
  (void)cache.get_or_plan(c->bound);  // evicts b
  const auto counters = cache.counters();
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.entries, 2u);
  bool was_cached = false;
  (void)cache.get_or_plan(a->bound, {}, &was_cached);
  EXPECT_TRUE(was_cached);
  (void)cache.get_or_plan(b->bound, {}, &was_cached);
  EXPECT_FALSE(was_cached);  // b was evicted and re-plans
}

TEST(FusedExecutor, FingerprintGuardRejectsForeignStructure) {
  const KernelCase& kc = kernel_case("mttkrp3");
  auto inst = make_instance(kc, 20);
  // Structurally different tensor of the same shape.
  auto other = make_instance(kc, 21);
  ASSERT_NE(inst->sparse.structure_hash(), other->sparse.structure_hash());

  const Plan plan = plan_kernel(inst->bound);
  ASSERT_NE(plan.sparsity_fingerprint, 0u);
  // Executing the plan against the tensor it was planned for is fine...
  DenseTensor out = make_output(inst->bound);
  run_plan(inst->bound, plan, &out, {});
  // ...but against a structurally different CSF the guard must fire.
  EXPECT_THROW(run_plan(other->bound, plan, &out, {}), Error);

  // The raw (path, order) constructor opts out (documented escape hatch
  // for SPMD ranks running a global plan on local partitions).
  FusedExecutor raw(inst->bound.kernel, plan.path, plan.order);
  ExecArgs args;
  args.sparse = &other->bound.csf;
  args.dense = other->bound.dense;
  args.out_dense = &out;
  EXPECT_NO_THROW(raw.execute(args));
}

TEST(Session, PrepareMemoizesAndServesFamily) {
  // Order-3 CP-ALS family through one session: three kernels, three
  // misses, then every re-prepare (same or new session) hits.
  Rng rng(31);
  const CooTensor t = random_coo({12, 11, 10}, 80, rng);
  const DenseTensor u0 = random_dense({12, 5}, rng);
  const DenseTensor u1 = random_dense({11, 5}, rng);
  const DenseTensor u2 = random_dense({10, 5}, rng);

  KernelCache cache;
  Session session(t, {}, &cache);
  const int m0 = session.prepare("M0(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)",
                                 {&u1, &u2});
  const int m1 = session.prepare("M1(j,r) = T(i,j,k)*U0(i,r)*U2(k,r)",
                                 {&u0, &u2});
  EXPECT_NE(m0, m1);
  EXPECT_FALSE(session.plan_was_cached(m0));
  // Same expression again: memoized id, no new cache traffic.
  EXPECT_EQ(session.prepare("M0(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)", {&u1, &u2}),
            m0);
  EXPECT_EQ(session.num_kernels(), 2);
  EXPECT_EQ(cache.counters().misses, 2u);

  // A second session over the same tensor: pure hits.
  Session again(t, {}, &cache);
  const int h0 = again.prepare("M0(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)",
                               {&u1, &u2});
  EXPECT_TRUE(again.plan_was_cached(h0));

  // Outputs agree with the one-shot API bit for bit.
  DenseTensor via_session = session.make_output(m0);
  session.run(m0, &via_session);
  const BoundKernel bound =
      spttn::bind("M0(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)", t, {&u1, &u2});
  DenseTensor via_bind = make_output(bound);
  run_plan(bound, plan_kernel(bound), &via_bind, {});
  for (std::int64_t i = 0; i < via_bind.size(); ++i) {
    ASSERT_EQ(std::memcmp(&via_bind.data()[i], &via_session.data()[i],
                          sizeof(double)), 0);
  }
}

TEST(Session, ValueRewritesReusePlans) {
  // TTTP through a session, then rewrite the sparse values in place: the
  // cached plan must keep serving (structure unchanged) and produce the
  // values a fresh bind over the rewritten tensor would.
  Rng rng(33);
  CooTensor t = random_coo({9, 8, 7}, 60, rng);
  const DenseTensor u = random_dense({9, 4}, rng);
  const DenseTensor v = random_dense({8, 4}, rng);
  const DenseTensor w = random_dense({7, 4}, rng);
  const std::string expr = "S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)";

  KernelCache cache;
  Session session(t, {}, &cache);
  const int id = session.prepare(expr, {&u, &v, &w});
  std::vector<double> out(static_cast<std::size_t>(t.nnz()), 0.0);
  session.run(id, nullptr, out);

  auto vals = session.values();
  for (auto& x : vals) x *= -2.0;
  std::vector<double> rewritten(static_cast<std::size_t>(t.nnz()), 0.0);
  session.run(id, nullptr, rewritten);
  for (std::size_t e = 0; e < out.size(); ++e) {
    ASSERT_DOUBLE_EQ(rewritten[e], -2.0 * out[e]);
  }
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(Session, PrepareKeysOnSparseOperand) {
  // One square tensor bound as A (T*D) and as B (D*T): the same expression
  // text and extents, two different kernels. Each id must compute its own
  // product, checked against the reference executor.
  Rng rng(34);
  const CooTensor t = random_coo({6, 6}, 20, rng);
  const DenseTensor d = random_dense({6, 6}, rng);
  const std::string expr = "C(i,j) = A(i,k)*B(k,j)";

  KernelCache cache;
  Session session(t, {}, &cache);
  const int a_sparse = session.prepare(expr, {&d});
  const int b_sparse = session.prepare(expr, {&d}, "B");
  EXPECT_NE(a_sparse, b_sparse);
  EXPECT_EQ(cache.counters().misses, 2u);

  const std::vector<const DenseTensor*> a_slots = {nullptr, &d};
  const std::vector<const DenseTensor*> b_slots = {&d, nullptr};
  for (const auto& [id, slots] :
       {std::pair{a_sparse, a_slots}, std::pair{b_sparse, b_slots}}) {
    DenseTensor got = session.make_output(id);
    session.run(id, &got);
    DenseTensor want = session.make_output(id);
    reference_execute(session.kernel(id), t, slots, &want, {});
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got.data()[i], want.data()[i], 1e-12)
          << "kernel " << id << " elem " << i;
    }
  }
}

TEST(Session, ConcurrentRunFromManyThreads) {
  // The TSan target: several client threads run() against one session
  // (shared cached executor, shared CSF) and verify their private outputs.
  ScopedLanes lanes(4);
  Rng rng(37);
  const CooTensor t = random_coo({16, 14, 12}, 200, rng);
  const DenseTensor u1 = random_dense({14, 5}, rng);
  const DenseTensor u2 = random_dense({12, 5}, rng);

  KernelCache cache;
  Session session(t, {}, &cache);
  const int id = session.prepare("M(i,r) = T(i,j,k)*U1(j,r)*U2(k,r)",
                                 {&u1, &u2});
  DenseTensor expected = session.make_output(id);
  session.run(id, &expected);
  EXPECT_THROW(session.run(99, &expected), Error);

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int q = 0; q < kRequests; ++q) {
        DenseTensor out = session.make_output(id);
        session.run(id, &out);
        for (std::int64_t i = 0; i < expected.size(); ++i) {
          if (std::memcmp(&expected.data()[i], &out.data()[i],
                          sizeof(double)) != 0) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(KernelCache, ConcurrentGetOrPlanRaces) {
  // Concurrent misses on the same signature: one entry wins, everyone gets
  // a usable (and identical) plan, and single-flight dedup means exactly
  // one planner search ran no matter how the threads interleaved.
  auto inst = make_instance(kernel_case("ttmc3"), 41);
  KernelCache cache;
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const KernelCache::Entry>> entries(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      entries[static_cast<std::size_t>(i)] = cache.get_or_plan(inst->bound);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.counters().entries, 1u);
  EXPECT_EQ(cache.counters().planned, 1u);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(entries[0]->plan.path,
              entries[static_cast<std::size_t>(i)]->plan.path);
    EXPECT_EQ(entries[0]->plan.order,
              entries[static_cast<std::size_t>(i)]->plan.order);
  }
}

// ---------------------------------------------------------------------------
// Persistence: save_dir / load_dir.

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / leaf;
  fs::remove_all(dir);
  return dir.string();
}

TEST(KernelCachePersist, WarmDirServesEveryPaperKernelWithZeroSearches) {
  // The acceptance criterion: a cold process pointed at a warmed cache dir
  // serves every paper kernel without a single planner search.
  const std::string dir = fresh_dir("spttn_cache_warm");
  const auto suite = paper_kernels();

  KernelCache warm;
  std::vector<std::unique_ptr<Instance>> instances;
  for (const auto& kc : suite) {
    instances.push_back(make_instance(kc, 97));
    (void)warm.get_or_plan(instances.back()->bound);
  }
  const auto saved = warm.save_dir(dir);
  EXPECT_EQ(saved.processed, static_cast<int>(suite.size()));
  EXPECT_EQ(saved.rejected, 0) << saved.to_string();

  // "Cold process": a fresh cache (fresh instances too — the suite's
  // deterministic generators reproduce identical structures, as another
  // process would when binding the same data).
  KernelCache cold;
  const auto loaded = cold.load_dir(dir);
  EXPECT_EQ(loaded.processed, static_cast<int>(suite.size()));
  EXPECT_EQ(loaded.rejected, 0) << loaded.to_string();

  for (std::size_t i = 0; i < suite.size(); ++i) {
    SCOPED_TRACE(suite[i].name);
    auto inst = make_instance(suite[i], 97);
    bool was_cached = false;
    const auto entry = cold.get_or_plan(inst->bound, {}, &was_cached);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(was_cached);

    // Loaded plans execute bit-identically to the freshly planned ones.
    const bool sparse_out = inst->bound.kernel.output_is_sparse();
    ExecArgs args;
    args.sparse = &inst->bound.csf;
    args.dense = inst->bound.dense;
    DenseTensor out_fresh, out_loaded;
    std::vector<double> sp_fresh, sp_loaded;
    if (sparse_out) {
      sp_fresh.assign(static_cast<std::size_t>(inst->sparse.nnz()), 0.0);
      sp_loaded = sp_fresh;
    } else {
      out_fresh = make_output(inst->bound);
      out_loaded = make_output(inst->bound);
    }
    auto run_one = [&](const KernelCache::Entry& e, DenseTensor* od,
                       std::span<double> os) {
      ExecArgs a = args;
      a.out_dense = od;
      a.out_sparse = os;
      e.exec->execute(a);
    };
    run_one(*warm.get_or_plan(instances[i]->bound),
            sparse_out ? nullptr : &out_fresh, sp_fresh);
    run_one(*entry, sparse_out ? nullptr : &out_loaded, sp_loaded);
    if (sparse_out) {
      for (std::size_t e = 0; e < sp_fresh.size(); ++e) {
        ASSERT_EQ(std::memcmp(&sp_fresh[e], &sp_loaded[e], sizeof(double)),
                  0);
      }
    } else {
      for (std::int64_t e = 0; e < out_fresh.size(); ++e) {
        ASSERT_EQ(std::memcmp(&out_fresh.data()[e], &out_loaded.data()[e],
                              sizeof(double)),
                  0);
      }
    }
  }
  const auto c = cold.counters();
  EXPECT_EQ(c.planned, 0u) << "a warmed dir must serve with zero searches";
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.hits, static_cast<std::uint64_t>(suite.size()));
}

TEST(KernelCachePersist, LoadRejectsTamperedArtifactsButAdmitsGoodOnes) {
  const std::string dir = fresh_dir("spttn_cache_reject");
  auto inst = make_instance(kernel_case("mttkrp3"), 98);
  KernelCache warm;
  (void)warm.get_or_plan(inst->bound);
  ASSERT_EQ(warm.save_dir(dir).processed, 1);

  // Read the good artifact back to derive the tampered variants.
  std::string good;
  for (const auto& de : fs::directory_iterator(dir)) {
    std::ifstream is(de.path(), std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    good = buf.str();
  }
  ASSERT_FALSE(good.empty());

  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream os(fs::path(dir) / name, std::ios::binary);
    os << text;
  };
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] ^= 1;
  write("corrupt.plan", corrupt);
  write("truncated.plan", good.substr(0, good.size() / 3));
  std::string v2 = good;
  v2.replace(v2.find("v1"), 2, "v2");
  write("version.plan", v2);
  // Wrong fingerprint: artifact keyed for a different structure than the
  // plan was derived from (a stale artifact).
  write("stale.plan",
        serialize_plan(inst->bound.kernel,
                       warm.get_or_plan(inst->bound)->plan,
                       {{"options_hash", "0"},
                        {"sparsity_fingerprint", "deadbeef"}}));

  KernelCache cold;
  const auto rep = cold.load_dir(dir);
  EXPECT_EQ(rep.processed, 1);  // only the untouched artifact
  EXPECT_EQ(rep.rejected, 4) << rep.to_string();
  EXPECT_EQ(cold.counters().entries, 1u);
  bool saw_fingerprint = false, saw_version = false, saw_checksum = false;
  for (const std::string& e : rep.errors) {
    saw_fingerprint |= e.find("fingerprint mismatch") != std::string::npos;
    saw_version |= e.find("version header") != std::string::npos;
    saw_checksum |= e.find("checksum") != std::string::npos;
  }
  EXPECT_TRUE(saw_fingerprint);
  EXPECT_TRUE(saw_version);
  EXPECT_TRUE(saw_checksum);
}

// An artifact whose cost-model stamp is missing (written before the stamp
// existed) or names another model is rejected with both values in the
// error, and the kernel re-plans instead of serving the older nest.
TEST(KernelCachePersist, LoadRejectsMissingOrOtherCostModelStamp) {
  const std::string dir = fresh_dir("spttn_cache_model");
  fs::create_directories(dir);
  auto inst = make_instance(kernel_case("mttkrp3"), 99);
  KernelCache warm;
  const auto entry = warm.get_or_plan(inst->bound);
  const auto hex = [](std::uint64_t v) {
    return strfmt("%016llx", static_cast<unsigned long long>(v));
  };
  std::vector<std::pair<std::string, std::string>> meta = {
      {"options_hash", hex(entry->signature.options_hash)},
      {"sparsity_fingerprint", hex(entry->signature.sparsity_fingerprint)}};
  const auto write = [&](const std::string& name) {
    std::ofstream os(fs::path(dir) / name, std::ios::binary);
    os << serialize_plan(inst->bound.kernel, entry->plan, meta);
  };
  write("unstamped.plan");
  const std::string other = std::to_string(kCostModelVersion + 1);
  meta.emplace_back("cost_model", other);
  write("other.plan");

  KernelCache cold;
  const auto rep = cold.load_dir(dir);
  EXPECT_EQ(rep.processed, 0);
  EXPECT_EQ(rep.rejected, 2) << rep.to_string();
  ASSERT_EQ(rep.errors.size(), 2u);
  const std::string planner =
      "planner is cost_model " + std::to_string(kCostModelVersion);
  for (const std::string& e : rep.errors) {
    EXPECT_NE(e.find("cost model mismatch"), std::string::npos) << e;
    EXPECT_NE(e.find(planner), std::string::npos) << e;
  }
  // load_dir reads files in name order: other.plan, then unstamped.plan.
  EXPECT_NE(rep.errors[0].find("stamped cost_model " + other),
            std::string::npos)
      << rep.errors[0];
  EXPECT_NE(rep.errors[1].find("stamped cost_model (none)"),
            std::string::npos)
      << rep.errors[1];

  bool was_cached = true;
  (void)cold.get_or_plan(inst->bound, {}, &was_cached);
  EXPECT_FALSE(was_cached);
  EXPECT_EQ(cold.counters().planned, 1u);

  // The stamp save_dir writes is the one load_dir admits.
  const std::string good = fresh_dir("spttn_cache_model_good");
  ASSERT_EQ(warm.save_dir(good).processed, 1);
  KernelCache reloaded;
  const auto ok = reloaded.load_dir(good);
  EXPECT_EQ(ok.processed, 1);
  EXPECT_EQ(ok.rejected, 0) << ok.to_string();
}

TEST(KernelCachePersist, LoadDirEdgeCases) {
  // Missing directory: structured error, no throw.
  KernelCache cache;
  const auto missing = cache.load_dir(fresh_dir("spttn_cache_nonexistent"));
  EXPECT_EQ(missing.processed, 0);
  EXPECT_FALSE(missing.errors.empty());

  // Pass-through cache: nothing can become resident; the sweep says so.
  KernelCache pass(0);
  const auto rep = pass.load_dir(fresh_dir("spttn_cache_pass"));
  EXPECT_EQ(rep.processed, 0);
  ASSERT_FALSE(rep.errors.empty());
  EXPECT_NE(rep.errors[0].find("pass-through"), std::string::npos);
}

TEST(KernelCache, SingleFlightCoalescesConcurrentMisses) {
  // Regression for the double-planning bug: N clients racing a cold cache
  // on one signature must cost exactly ONE planner search. Every miss that
  // did not run the search is accounted as coalesced, and all clients end
  // up sharing the one published entry.
  auto inst = make_instance(kernel_case("mttkrp3"), 43);
  KernelCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const KernelCache::Entry>> entries(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start barrier: maximize miss overlap
      entries[static_cast<std::size_t>(i)] = cache.get_or_plan(inst->bound);
    });
  }
  for (auto& th : threads) th.join();
  const auto c = cache.counters();
  EXPECT_EQ(c.planned, 1u);
  EXPECT_EQ(c.inserts, 1u);
  EXPECT_EQ(c.hits + c.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(c.coalesced, c.misses - 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(entries[0].get(), entries[static_cast<std::size_t>(i)].get());
  }
}

TEST(KernelCache, ZeroCapacityIsPassThrough) {
  // Capacity 0 = pass-through: plan, verify, serve — never insert, never
  // churn.
  auto inst = make_instance(kernel_case("mttkrp3"), 44);
  KernelCache cache(0);
  const auto e1 = cache.get_or_plan(inst->bound);
  const auto e2 = cache.get_or_plan(inst->bound);
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e2, nullptr);
  const auto c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.inserts, 0u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.planned, 2u);

  // Pass-through entries still execute correctly.
  DenseTensor out = make_output(inst->bound);
  ExecArgs args;
  args.sparse = &inst->bound.csf;
  args.dense = inst->bound.dense;
  args.out_dense = &out;
  e1->exec->execute(args);
}

TEST(KernelCache, CapacityOneKeepsLatest) {
  auto a = make_instance(kernel_case("mttkrp3"), 45);
  auto b = make_instance(kernel_case("ttmc3"), 45);
  KernelCache cache(1);
  (void)cache.get_or_plan(a->bound);
  (void)cache.get_or_plan(b->bound);
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 1u);
  bool was_cached = false;
  (void)cache.get_or_plan(b->bound, {}, &was_cached);  // resident
  EXPECT_TRUE(was_cached);
  (void)cache.get_or_plan(a->bound, {}, &was_cached);  // evicted earlier
  EXPECT_FALSE(was_cached);
}

}  // namespace
}  // namespace spttn
