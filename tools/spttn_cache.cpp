// spttn_cache: inspect and prewarm on-disk plan cache directories
// (KernelCache::save_dir / load_dir artifacts).
//
//   spttn_cache --dir=plans --prewarm   # plan the paper suite, save it
//   spttn_cache --dir=plans             # list the artifacts in the dir
//   spttn_cache --dir=plans --check     # also admit them via load_dir
//
// Prewarm plans every paper-suite kernel (deterministic tensors from
// --seed, the same generator the tests and benches use) through a
// KernelCache and persists the resident set, so a serving process pointed
// at the directory starts with zero planner searches. Inspect prints one
// line per artifact: kernel, extents, sparsity fingerprint and cost.
// --check then loads the directory into a fresh KernelCache with
// KernelCache::load_dir — the same admission gate a serving process runs
// (plan verifier, executor cross-check, fingerprint consistency) — and
// prints its report.
//
// Exit code: 0 when every artifact processed cleanly, 1 otherwise.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "core/plan_io.hpp"
#include "serve/kernel_cache.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

namespace fs = std::filesystem;
using spttn::KernelCache;

int prewarm(const std::string& dir, const std::string& filter,
            std::uint64_t seed) {
  KernelCache cache;
  int planned = 0;
  for (const spttn::SuiteKernel& sk : spttn::paper_kernel_suite()) {
    if (!filter.empty() && sk.name.find(filter) == std::string::npos) {
      continue;
    }
    const auto inst = spttn::make_suite_instance(sk, seed);
    const auto entry = cache.get_or_plan(inst->bound);
    ++planned;
    std::printf("planned  %-12s cost=%.3g flops=%.3g\n", sk.name.c_str(),
                entry->plan.cost.primary, entry->plan.flops);
  }
  const auto report = cache.save_dir(dir);
  std::printf("saved %d artifact(s) to %s (%d rejected)\n", report.processed,
              dir.c_str(), report.rejected);
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "  %s\n", e.c_str());
  }
  return planned > 0 && report.rejected == 0 ? 0 : 1;
}

int inspect(const std::string& dir, bool check) {
  std::error_code ec;
  std::vector<fs::path> files;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".plan") {
      files.push_back(it->path());
    }
  }
  if (ec) {
    std::fprintf(stderr, "spttn_cache: cannot read '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  int bad = 0;
  for (const fs::path& path : files) {
    try {
      std::ifstream is(path, std::ios::binary);
      SPTTN_CHECK_MSG(is.good(), "cannot open '" << path.string() << "'");
      std::ostringstream buf;
      buf << is.rdbuf();
      const spttn::LoadedPlan loaded = spttn::deserialize_plan(buf.str());

      std::string extents;
      for (int id = 0; id < loaded.kernel.num_indices(); ++id) {
        if (!extents.empty()) extents += "x";
        extents += std::to_string(loaded.kernel.index_dim(id));
      }
      std::printf(
          "%-28s ok          %s  extents=%s fingerprint=%016llx cost=%.3g\n",
          path.filename().string().c_str(),
          loaded.kernel.to_string().c_str(), extents.c_str(),
          static_cast<unsigned long long>(loaded.plan.sparsity_fingerprint),
          loaded.plan.cost.primary);
    } catch (const std::exception& ex) {
      ++bad;
      std::printf("%-28s REJECTED    %s\n",
                  path.filename().string().c_str(), ex.what());
    }
  }
  std::printf("%zu artifact(s), %d bad\n", files.size(), bad);
  if (check) {
    KernelCache cache;
    const KernelCache::DirReport report = cache.load_dir(dir);
    std::printf("load_dir: %s\n", report.to_string().c_str());
    if (!report.errors.empty()) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  spttn::Cli cli("spttn_cache");
  const std::string* dir =
      cli.add_string("dir", "plans", "plan cache directory");
  const bool* do_prewarm = cli.add_bool(
      "prewarm", false, "plan the paper suite and save it to --dir");
  const bool* do_check = cli.add_bool(
      "check", false,
      "admit every artifact through KernelCache::load_dir on a fresh cache");
  const std::string* filter = cli.add_string(
      "kernel", "", "prewarm only suite kernels whose name contains this");
  const std::int64_t* seed =
      cli.add_int("seed", 42, "seed for the suite's random tensors");
  cli.parse(argc, argv);

  try {
    if (*do_prewarm) {
      return prewarm(*dir, *filter, static_cast<std::uint64_t>(*seed));
    }
    return inspect(*dir, *do_check);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "spttn_cache: %s\n", ex.what());
    return 1;
  }
}
