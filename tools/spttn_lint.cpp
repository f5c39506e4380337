// spttn_lint: plan the paper kernel suite under a sweep of planner option
// sets and run the static plan verifier (with the executor cross-check) on
// every resulting plan. CI runs this so a planner or executor change that
// produces an unverifiable plan fails the build even if no unit test
// exercises that exact kernel/option combination.
//
//   spttn_lint                 # whole suite, all option sets
//   spttn_lint --kernel=mttkrp # suite entries whose name contains "mttkrp"
//   spttn_lint --verbose       # print each verified plan's loop nest
//
// Exit code: 0 when every plan verifies clean, 1 otherwise. A warning
// counts as a failure too: a par-analysis-mismatch in the conservative
// direction (the executor claims less locality than the verifier proves)
// is only a warning in the report, but it means the two analyses have
// drifted apart.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "analysis/plan_verifier.hpp"
#include "exec/executor.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  spttn::Cli cli("spttn_lint");
  const std::string* filter =
      cli.add_string("kernel", "", "only suite kernels whose name contains this");
  const bool* verbose =
      cli.add_bool("verbose", false, "print each verified plan's loop nest");
  const bool* cross =
      cli.add_bool("cross_check", true,
                   "also cross-check against the compiled executor");
  const std::int64_t* seed =
      cli.add_int("seed", 42, "seed for the suite's random tensors");
  cli.parse(argc, argv);

  int planned = 0;
  int failed = 0;
  int warnings = 0;
  for (const spttn::SuiteKernel& sk : spttn::paper_kernel_suite()) {
    if (!filter->empty() && sk.name.find(*filter) == std::string::npos) {
      continue;
    }
    const auto inst = spttn::make_suite_instance(
        sk, static_cast<std::uint64_t>(*seed));
    // The option sets live in kernel_suite so the differential tests sweep
    // exactly what the linter sweeps.
    for (const spttn::LintOptionSet& set : spttn::lint_option_sets()) {
      ++planned;
      const std::string label = sk.name + " [" + set.name + "]";
      try {
        const spttn::Plan plan = spttn::make_plan(
            inst->bound.kernel, inst->bound.stats, set.options);
        const spttn::PlanVerifier verifier(inst->bound.kernel, set.options,
                                           &inst->bound.stats);
        spttn::VerifyReport report;
        if (*cross) {
          const spttn::FusedExecutor exec(inst->bound.kernel, plan);
          report = verifier.verify(plan, exec);
        } else {
          report = verifier.verify(plan);
        }
        warnings += report.warnings();
        if (report.ok() && report.warnings() == 0) {
          std::printf("ok    %s\n", label.c_str());
          if (*verbose) {
            std::printf("%s\n", report.to_string().c_str());
            std::printf("%s\n", plan.describe(inst->bound.kernel).c_str());
          }
        } else {
          ++failed;
          std::printf("FAIL  %-32s\n%s\n", label.c_str(),
                      report.to_string().c_str());
          std::printf("%s\n", plan.describe(inst->bound.kernel).c_str());
        }
      } catch (const std::exception& e) {
        // make_plan itself verifies in Debug builds; a throw here is the
        // same regression the report path would have flagged.
        ++failed;
        std::printf("FAIL  %-32s\nplanning threw: %s\n", label.c_str(),
                    e.what());
      }
    }
  }
  std::printf("spttn_lint: %d plan(s) verified, %d failure(s), %d warning(s)\n",
              planned, failed, warnings);
  return failed == 0 ? 0 : 1;
}
