// Plan persistence: exact round-trips through the versioned artifact
// format for every paper kernel, and structured rejection of corrupted,
// truncated, version-mismatched and tampered artifacts — a bad file must
// yield an spttn::Error, never UB and never a plan that executes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/plan_verifier.hpp"
#include "core/plan_io.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spttn {
namespace {

using testing::make_instance;
using testing::paper_kernels;

TEST(PlanIo, RoundTripsEveryPaperKernel) {
  for (const auto& kc : paper_kernels()) {
    SCOPED_TRACE(kc.name);
    auto inst = make_instance(kc, 71);
    const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats);

    const std::string text = serialize_plan(inst->bound.kernel, plan);
    const LoadedPlan loaded = deserialize_plan(text);

    // The reconstructed kernel renders identically and re-serializing the
    // loaded artifact is byte-identical — every field (including the hex
    // double bit patterns) survived exactly.
    EXPECT_EQ(loaded.kernel.to_string(), inst->bound.kernel.to_string());
    EXPECT_EQ(serialize_plan(loaded.kernel, loaded.plan), text);

    // Spot-check the semantic fields the cache keys on.
    EXPECT_EQ(loaded.plan.sparsity_fingerprint, plan.sparsity_fingerprint);
    EXPECT_EQ(loaded.plan.flops, plan.flops);
    EXPECT_EQ(loaded.plan.cost.primary, plan.cost.primary);
    EXPECT_EQ(loaded.plan.order, plan.order);
    EXPECT_EQ(loaded.plan.tree.nodes().size(), plan.tree.nodes().size());
    EXPECT_EQ(loaded.plan.tree.total_buffer_size(),
              plan.tree.total_buffer_size());

    // A faithfully loaded plan passes the external-admission verifier.
    EXPECT_TRUE(verify_external_plan(loaded.kernel, loaded.plan).ok())
        << verify_external_plan(loaded.kernel, loaded.plan).to_string();
  }
}

TEST(PlanIo, MetaEntriesRoundTrip) {
  auto inst = make_instance(paper_kernels().front(), 72);
  const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats);
  const std::string text =
      serialize_plan(inst->bound.kernel, plan,
                     {{"options_hash", "00ff"}, {"note", "warm"}});
  const LoadedPlan loaded = deserialize_plan(text);
  EXPECT_EQ(loaded.meta_value("options_hash"), "00ff");
  EXPECT_EQ(loaded.meta_value("note"), "warm");
  EXPECT_EQ(loaded.meta_value("absent"), "");
}

// A plan the node budget stopped carries its search diagnostics (nodes
// expanded, lower bound, gap, the exhausted flag) through the artifact
// bit for bit.
TEST(PlanIo, RoundTripsBudgetDiagnostics) {
  auto inst = make_instance(paper_kernels()[1], 42);  // mttkrp4
  PlannerOptions options;
  options.budget.max_nodes = 8;
  const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats, options);
  ASSERT_TRUE(plan.budget_exhausted);
  ASSERT_GT(plan.optimality_gap, 0.0);
  const std::string text = serialize_plan(inst->bound.kernel, plan);
  const LoadedPlan loaded = deserialize_plan(text);
  EXPECT_EQ(loaded.plan.nodes_expanded, plan.nodes_expanded);
  EXPECT_EQ(loaded.plan.flops_lower_bound, plan.flops_lower_bound);
  EXPECT_EQ(loaded.plan.optimality_gap, plan.optimality_gap);
  EXPECT_TRUE(loaded.plan.budget_exhausted);
  EXPECT_EQ(loaded.plan.paths_total, plan.paths_total);
  EXPECT_EQ(loaded.plan.paths_executable, plan.paths_executable);
  EXPECT_EQ(serialize_plan(loaded.kernel, loaded.plan), text);
}

TEST(PlanIo, RejectsWhitespaceInMeta) {
  auto inst = make_instance(paper_kernels().front(), 73);
  const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats);
  EXPECT_THROW(serialize_plan(inst->bound.kernel, plan,
                              {{"key", "two words"}}),
               Error);
}

class PlanIoReject : public ::testing::Test {
 protected:
  void SetUp() override {
    auto inst = make_instance(paper_kernels().front(), 74);
    const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats);
    text_ = serialize_plan(inst->bound.kernel, plan);
  }
  std::string text_;
};

TEST_F(PlanIoReject, VersionMismatch) {
  std::string v2 = text_;
  const auto pos = v2.find("v1");
  ASSERT_NE(pos, std::string::npos);
  v2.replace(pos, 2, "v2");
  try {
    deserialize_plan(v2);
    FAIL() << "v2 header must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version header"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(PlanIoReject, SingleCharacterCorruption) {
  // Flip one character in the middle of the payload: the checksum catches
  // it before any field is even parsed.
  std::string bad = text_;
  const std::size_t mid = bad.size() / 2;
  bad[mid] = bad[mid] == '0' ? '1' : '0';
  try {
    deserialize_plan(bad);
    FAIL() << "corrupt payload must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(PlanIoReject, TruncationAtEveryPrefixIsAnErrorNeverUB) {
  // Every proper prefix must throw (missing checksum, truncated field, or
  // checksum mismatch) — never crash, never return a plan. Step a few
  // bytes at a time to keep the sweep fast but cover all regions.
  for (std::size_t len = 0; len < text_.size(); len += 7) {
    SCOPED_TRACE(len);
    EXPECT_THROW(deserialize_plan(text_.substr(0, len)), Error);
  }
}

TEST_F(PlanIoReject, OversizedCountIsBoundedNotAllocated) {
  // Tamper a count field to a huge value and fix nothing else: either the
  // checksum rejects it, and even with a recomputed checksum the bounds
  // check refuses before allocating. Simulate the latter by rebuilding the
  // artifact text around the bad count and recomputing no checksum —
  // checksum mismatch is the expected structured error.
  std::string bad = text_;
  const auto pos = bad.find("\nterms ");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = bad.find('\n', pos + 1);
  bad.replace(pos, eol - pos, "\nterms 99999999999");
  EXPECT_THROW(deserialize_plan(bad), Error);
}

TEST_F(PlanIoReject, GarbageAndEmptyInputs) {
  EXPECT_THROW(deserialize_plan(""), Error);
  EXPECT_THROW(deserialize_plan("not a plan at all\n"), Error);
  EXPECT_THROW(deserialize_plan("spttn-plan v1\n"), Error);
}

}  // namespace
}  // namespace spttn
