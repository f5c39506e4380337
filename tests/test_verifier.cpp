// PlanVerifier: every paper-kernel plan verifies clean, and each injected
// defect class trips exactly the diagnostic rule built for it. Mutations go
// through LoopTree::assemble — the raw-parts path plan_io's deserializer
// uses — so these tests double as the admission-gate spec for the saved
// plans KernelCache::load_dir admits.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/plan_verifier.hpp"
#include "core/plan_io.hpp"
#include "exec/executor.hpp"
#include "serve/kernel_cache.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace spttn {
namespace {

using testing::make_instance;
using testing::paper_kernels;
using Action = LoopTree::Action;
using Node = LoopTree::Node;

struct Planned {
  std::unique_ptr<testing::Instance> inst;
  PlannerOptions options;
  Plan plan;

  const Kernel& kernel() const { return inst->bound.kernel; }
  const SparsityStats& stats() const { return inst->bound.stats; }

  VerifyReport verify() const {
    return PlanVerifier(kernel(), options, &stats()).verify(plan);
  }
};

Planned plan_case(const std::string& name, PlannerOptions options = {}) {
  for (const auto& kc : paper_kernels()) {
    if (kc.name != name) continue;
    Planned p;
    p.inst = make_instance(kc, 42);
    p.options = options;
    p.plan = make_plan(p.inst->bound.kernel, p.inst->bound.stats, options);
    return p;
  }
  ADD_FAILURE() << "unknown suite kernel " << name;
  return {};
}

/// Rebuild the plan's tree from mutated raw parts.
template <typename Fn>
void mutate_tree(Plan* plan, Fn&& fn) {
  std::vector<Node> nodes = plan->tree.nodes();
  std::vector<Action> top = plan->tree.top();
  std::vector<BufferSpec> buffers = plan->tree.buffers();
  fn(nodes, top, buffers);
  plan->tree =
      LoopTree::assemble(std::move(nodes), std::move(top), std::move(buffers));
}

/// Position of the node holding term `t` directly in its body, or -1.
int node_holding_term(const std::vector<Node>& nodes, int t) {
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    for (const Action& a : nodes[n].body) {
      if (a.kind == Action::Kind::kTerm && a.id == t) {
        return static_cast<int>(n);
      }
    }
  }
  return -1;
}

/// Position of the node holding reset `t` directly in its body, or -1.
int node_holding_reset(const std::vector<Node>& nodes, int t) {
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    for (const Action& a : nodes[n].body) {
      if (a.kind == Action::Kind::kReset && a.id == t) {
        return static_cast<int>(n);
      }
    }
  }
  return -1;
}

TEST(PlanVerifier, AllPaperKernelPlansVerifyClean) {
  for (const auto& kc : paper_kernels()) {
    const auto inst = make_instance(kc, 42);
    const PlannerOptions options;
    const Plan plan =
        make_plan(inst->bound.kernel, inst->bound.stats, options);
    const FusedExecutor exec(inst->bound.kernel, plan);
    const VerifyReport report =
        PlanVerifier(inst->bound.kernel, options, &inst->bound.stats)
            .verify(plan, exec);
    EXPECT_TRUE(report.ok()) << kc.name << ":\n" << report.to_string();
    EXPECT_EQ(report.warnings(), 0) << kc.name << ":\n" << report.to_string();
  }
}

TEST(PlanVerifier, RelaxedBoundPlansVerifyClean) {
  PlannerOptions options;
  options.buffer_dim_bound = 0;  // some kernels must relax upward
  int relaxed = 0;
  for (const auto& kc : paper_kernels()) {
    const auto inst = make_instance(kc, 42);
    const Plan plan =
        make_plan(inst->bound.kernel, inst->bound.stats, options);
    if (plan.buffer_dim_bound > options.buffer_dim_bound) ++relaxed;
    const VerifyReport report =
        PlanVerifier(inst->bound.kernel, options, &inst->bound.stats)
            .verify(plan);
    EXPECT_TRUE(report.ok()) << kc.name << ":\n" << report.to_string();
  }
  EXPECT_GT(relaxed, 0) << "no kernel exercised the relaxation loop";
}

TEST(PlanVerifier, ReleaseOptInFlagVerifies) {
  PlannerOptions options;
  options.verify = true;  // no-op in Debug (always verifies), opt-in else
  const Planned p = plan_case("mttkrp3", options);
  EXPECT_TRUE(p.verify().ok());
}

// --- defect class: unbound index ---------------------------------------

TEST(PlanVerifier, HoistedTermTripsIndexUnbound) {
  Planned p = plan_case("mttkrp3");
  mutate_tree(&p.plan, [](std::vector<Node>& nodes, std::vector<Action>& top,
                          std::vector<BufferSpec>&) {
    const int n = node_holding_term(nodes, 0);
    ASSERT_GE(n, 0);
    auto& body = nodes[static_cast<std::size_t>(n)].body;
    body.erase(std::find_if(body.begin(), body.end(), [](const Action& a) {
      return a.kind == Action::Kind::kTerm && a.id == 0;
    }));
    // The term now executes with no enclosing loops at all.
    top.push_back({Action::Kind::kTerm, 0});
  });
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("index-unbound")) << report.to_string();
  EXPECT_TRUE(report.has("loop-order-mismatch")) << report.to_string();
}

TEST(PlanVerifier, RemovedTermTripsTermMissing) {
  Planned p = plan_case("mttkrp3");
  mutate_tree(&p.plan, [](std::vector<Node>& nodes, std::vector<Action>&,
                          std::vector<BufferSpec>&) {
    const int n = node_holding_term(nodes, 0);
    ASSERT_GE(n, 0);
    auto& body = nodes[static_cast<std::size_t>(n)].body;
    body.erase(std::find_if(body.begin(), body.end(), [](const Action& a) {
      return a.kind == Action::Kind::kTerm && a.id == 0;
    }));
  });
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("term-missing")) << report.to_string();
}

TEST(PlanVerifier, RepeatedLoopIndexTripsIndexRebound) {
  Planned p = plan_case("mttkrp3");
  mutate_tree(&p.plan, [](std::vector<Node>& nodes, std::vector<Action>& top,
                          std::vector<BufferSpec>&) {
    // Find a root loop with a child loop and make the child iterate the
    // root's index again.
    for (const Action& a : top) {
      if (a.kind != Action::Kind::kLoop) continue;
      Node& root = nodes[static_cast<std::size_t>(a.id)];
      for (Action& c : root.body) {
        if (c.kind != Action::Kind::kLoop) continue;
        Node& child = nodes[static_cast<std::size_t>(c.id)];
        child.index = root.index;
        child.sparse = root.sparse;
        child.csf_level = root.csf_level;
        return;
      }
    }
    FAIL() << "no nested loop pair found";
  });
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("index-rebound")) << report.to_string();
}

TEST(PlanVerifier, FlippedSparseFlagTripsCsfIterationDrift) {
  Planned p = plan_case("mttkrp3");
  mutate_tree(&p.plan, [](std::vector<Node>& nodes, std::vector<Action>&,
                          std::vector<BufferSpec>&) {
    const auto it = std::find_if(nodes.begin(), nodes.end(),
                                 [](const Node& n) { return n.sparse; });
    ASSERT_NE(it, nodes.end());
    it->sparse = false;  // executor would iterate a dense range here
  });
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("csf-iteration-drift")) << report.to_string();
}

// --- defect class: wrong buffer scope ----------------------------------

TEST(PlanVerifier, DroppedBufferIndexTripsBufferScope) {
  Planned p = plan_case("ttmc3");
  bool mutated = false;
  mutate_tree(&p.plan, [&](std::vector<Node>&, std::vector<Action>&,
                           std::vector<BufferSpec>& buffers) {
    for (BufferSpec& spec : buffers) {
      if (spec.producer < 0 || spec.indices.empty()) continue;
      // Shrink the buffer below the scope Eq. 5 assigned it, keeping
      // dims/size internally consistent so only the scope rule fires.
      spec.size /= spec.dims.back();
      spec.indices.pop_back();
      spec.dims.pop_back();
      mutated = true;
      return;
    }
  });
  ASSERT_TRUE(mutated) << "ttmc3 plan has no non-scalar buffer";
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("buffer-scope")) << report.to_string();
}

TEST(PlanVerifier, CorruptBufferDimsTripExtentMismatch) {
  Planned p = plan_case("ttmc3");
  bool mutated = false;
  mutate_tree(&p.plan, [&](std::vector<Node>&, std::vector<Action>&,
                           std::vector<BufferSpec>& buffers) {
    for (BufferSpec& spec : buffers) {
      if (spec.producer < 0 || spec.dims.empty()) continue;
      spec.dims.front() += 1;  // no longer the kernel's declared extent
      mutated = true;
      return;
    }
  });
  ASSERT_TRUE(mutated);
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("buffer-extent-mismatch")) << report.to_string();
}

TEST(PlanVerifier, RemovedResetTripsResetMissing) {
  Planned p = plan_case("mttkrp3");
  bool mutated = false;
  mutate_tree(&p.plan, [&](std::vector<Node>& nodes, std::vector<Action>& top,
                           std::vector<BufferSpec>&) {
    const auto drop = [](std::vector<Action>& body) {
      const auto it =
          std::find_if(body.begin(), body.end(), [](const Action& a) {
            return a.kind == Action::Kind::kReset;
          });
      if (it == body.end()) return false;
      body.erase(it);
      return true;
    };
    for (Node& n : nodes) {
      if (drop(n.body)) {
        mutated = true;
        return;
      }
    }
    mutated = drop(top);
  });
  ASSERT_TRUE(mutated) << "mttkrp3 plan has no reset action";
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("buffer-reset-missing")) << report.to_string();
}

TEST(PlanVerifier, HoistedResetTripsResetScope) {
  // Find a suite plan whose reset sits inside a loop body, then hoist it to
  // the top level: values would leak across iterations of the scope the
  // cost model charged the buffer to.
  for (const auto& kc : paper_kernels()) {
    Planned p;
    p.inst = make_instance(kc, 42);
    p.plan = make_plan(p.inst->bound.kernel, p.inst->bound.stats, p.options);
    int reset_term = -1;
    for (int t = 0; t < p.plan.path.num_terms(); ++t) {
      if (node_holding_reset(p.plan.tree.nodes(), t) >= 0) {
        reset_term = t;
        break;
      }
    }
    if (reset_term < 0) continue;
    mutate_tree(&p.plan, [&](std::vector<Node>& nodes, std::vector<Action>& top,
                             std::vector<BufferSpec>&) {
      const int n = node_holding_reset(nodes, reset_term);
      auto& body = nodes[static_cast<std::size_t>(n)].body;
      body.erase(std::find_if(body.begin(), body.end(), [&](const Action& a) {
        return a.kind == Action::Kind::kReset && a.id == reset_term;
      }));
      top.insert(top.begin(), {Action::Kind::kReset, reset_term});
    });
    const VerifyReport report = p.verify();
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has("buffer-reset-scope"))
        << kc.name << ":\n" << report.to_string();
    return;
  }
  FAIL() << "no suite plan keeps a reset inside a loop body";
}

// --- defect class: overlapping task writes ------------------------------

TEST(PlanVerifier, ClaimedRootStrideTripsParWriteOverlap) {
  // Make a buffer look root-strided (partition-safe) while the recomputed
  // Eq. 5 index set proves distinct tasks would write the same region: the
  // reset is hoisted above the root (so the buffer is genuinely shared)
  // and the root index is forged into the buffer spec (so the executor's
  // classification, which trusts specs, would happily partition).
  for (const auto& kc : paper_kernels()) {
    Planned p;
    p.inst = make_instance(kc, 42);
    p.plan = make_plan(p.inst->bound.kernel, p.inst->bound.stats, p.options);
    int reset_term = -1;
    int root_node = -1;
    for (const Action& a : p.plan.tree.top()) {
      if (a.kind != Action::Kind::kLoop) continue;
      for (int t = 0; t < p.plan.path.num_terms(); ++t) {
        if (node_holding_reset(p.plan.tree.nodes(), t) == a.id) {
          reset_term = t;
          root_node = a.id;
          break;
        }
      }
      if (reset_term >= 0) break;
    }
    if (reset_term < 0) continue;  // needs a reset directly in a root body
    const Kernel& kernel = p.kernel();
    mutate_tree(&p.plan, [&](std::vector<Node>& nodes, std::vector<Action>& top,
                             std::vector<BufferSpec>& buffers) {
      auto& body = nodes[static_cast<std::size_t>(root_node)].body;
      body.erase(std::find_if(body.begin(), body.end(), [&](const Action& a) {
        return a.kind == Action::Kind::kReset && a.id == reset_term;
      }));
      top.insert(top.begin(), {Action::Kind::kReset, reset_term});
      const int root_index = nodes[static_cast<std::size_t>(root_node)].index;
      BufferSpec& spec = buffers[static_cast<std::size_t>(reset_term)];
      spec.indices.insert(spec.indices.begin(), root_index);
      spec.dims.insert(spec.dims.begin(), kernel.index_dim(root_index));
      spec.size *= kernel.index_dim(root_index);
    });
    const VerifyReport report = p.verify();
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has("par-write-overlap"))
        << kc.name << ":\n" << report.to_string();
    return;
  }
  FAIL() << "no suite plan keeps a reset directly in a root-loop body";
}

// --- defect class: stale cost -------------------------------------------

TEST(PlanVerifier, CorruptCostTripsCostDrift) {
  Planned p = plan_case("mttkrp3");
  p.plan.cost.primary = p.plan.cost.primary * 2 + 17;
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("cost-drift")) << report.to_string();
}

TEST(PlanVerifier, CorruptFlopsTripsFlopsDrift) {
  Planned p = plan_case("mttkrp3");
  p.plan.flops = p.plan.flops * 3 + 1;
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("flops-drift")) << report.to_string();
}

TEST(PlanVerifier, StaleFingerprintTripsFingerprintMismatch) {
  Planned p = plan_case("mttkrp3");
  p.plan.sparsity_fingerprint ^= 0xdeadbeefULL;
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("fingerprint-mismatch")) << report.to_string();
}

TEST(PlanVerifier, TruncatedOrderTripsOrderInvalid) {
  Planned p = plan_case("mttkrp3");
  p.plan.order.pop_back();
  const VerifyReport report = p.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("order-invalid")) << report.to_string();
}

// --- admission gates -----------------------------------------------------

// load_dir is the one way a plan made elsewhere enters the cache. An
// artifact with a valid checksum and the meta save_dir writes, but a tree
// whose first term is hoisted out of its loops, passes every check before
// the verifier's; the verifier must refuse it by rule name.
TEST(KernelCacheVerify, RefusesHandCorruptedPlan) {
  namespace fs = std::filesystem;
  Planned p = plan_case("mttkrp3");
  const KernelSignature sig =
      make_signature(p.kernel(), p.stats(), p.options);
  const fs::path dir = fs::path(::testing::TempDir()) / "spttn_verify_hoist";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto hex = [](std::uint64_t v) {
    return strfmt("%016llx", static_cast<unsigned long long>(v));
  };
  const auto write = [&](const std::string& name) {
    std::ofstream os(dir / name, std::ios::binary);
    os << serialize_plan(
        p.kernel(), p.plan,
        {{"options_hash", hex(sig.options_hash)},
         {"sparsity_fingerprint", hex(sig.sparsity_fingerprint)},
         {"cost_model", std::to_string(kCostModelVersion)}});
  };
  const std::string pristine = serialize_plan(p.kernel(), p.plan);
  write("a_pristine.plan");
  mutate_tree(&p.plan, [](std::vector<Node>& nodes, std::vector<Action>& top,
                          std::vector<BufferSpec>&) {
    const int n = node_holding_term(nodes, 0);
    ASSERT_GE(n, 0);
    auto& body = nodes[static_cast<std::size_t>(n)].body;
    body.erase(std::find_if(body.begin(), body.end(), [](const Action& a) {
      return a.kind == Action::Kind::kTerm && a.id == 0;
    }));
    top.push_back({Action::Kind::kTerm, 0});
  });
  write("b_hoisted.plan");

  KernelCache cache(4);
  const KernelCache::DirReport report = cache.load_dir(dir.string());
  EXPECT_EQ(report.processed, 1) << report.to_string();
  EXPECT_EQ(report.rejected, 1) << report.to_string();
  ASSERT_EQ(report.errors.size(), 1u);
  const std::string& error = report.errors[0];
  EXPECT_NE(error.find("b_hoisted.plan"), std::string::npos) << error;
  EXPECT_NE(error.find("plan verification failed"), std::string::npos)
      << error;
  EXPECT_NE(error.find("index-unbound"), std::string::npos) << error;
  EXPECT_EQ(cache.counters().entries, 1u);
  // The resident entry is the pristine plan.
  bool was_cached = false;
  const auto entry = cache.get_or_plan(p.kernel(), p.stats(), p.options,
                                       &was_cached);
  EXPECT_TRUE(was_cached);
  EXPECT_EQ(serialize_plan(p.kernel(), entry->plan), pristine);
}

TEST(KernelCacheVerify, GetOrPlanPublishesVerifiedEntries) {
  const auto inst = make_instance(paper_kernels().front(), 42);
  KernelCache cache(4);
  bool was_cached = true;
  const auto entry = cache.get_or_plan(inst->bound, {}, &was_cached);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(was_cached);
  // The published entry's plan still verifies against its own executor.
  const VerifyReport report =
      PlanVerifier(inst->bound.kernel, {}, &inst->bound.stats)
          .verify(entry->plan, *entry->exec);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(PlanVerifier, VerifyOrThrowCarriesRuleNames) {
  Planned p = plan_case("mttkrp3");
  p.plan.cost.primary += 1e6;
  try {
    verify_plan_or_throw(p.kernel(), p.plan, p.options, &p.stats());
    FAIL() << "expected verify_plan_or_throw to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cost-drift"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace spttn
