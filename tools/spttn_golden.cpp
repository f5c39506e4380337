// spttn_golden: dump the planner's chosen plan for every paper-suite kernel
// under every lint option set, serialized with core/plan_io, into a golden
// directory (default tests/golden/). test_planner_strategy compares
// make_plan's output byte-for-byte against the checked-in artifacts, so any
// change that silently alters the chosen plan, its cost/flops doubles, or
// its search counts trips the golden test instead of shipping.
//
// The same directory holds outputs.txt: one row per golden output case
// (analysis/kernel_suite.hpp golden_output_line) with the output length and
// a hash of its raw bytes — every suite kernel under every lint option set
// plus the golden networks, at 1 and 4 threads with the pool pinned to 4
// lanes. test_lowered checks the executor against it bit for bit.
//
//   spttn_golden                      # write tests/golden/ (cwd-relative)
//   spttn_golden --out DIR            # write DIR/*.plan and DIR/outputs.txt
//   spttn_golden --check              # compare instead of write (exit 1 on drift)
//
// --check names what drifted: the first differing line of each drifted plan
// (recorded and produced), and the key (kernel, option set, threads) of each
// outputs.txt row that differs, is missing from the file, or is extra in it.
//
// Regenerate only when a planner change is *supposed* to alter plans, or an
// executor change is *supposed* to alter output bits, and say so in the
// commit message.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "core/plan_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

std::string golden_name(const std::string& kernel, const std::string& set) {
  return kernel + "__" + set + ".plan";
}

/// Plan `sk` (instance seed 42) under `set`, run it at 1 and 4 threads, and
/// append one golden output row per run.
void append_output_rows(const spttn::SuiteKernel& sk,
                        const spttn::LintOptionSet& set, std::string* rows) {
  const auto inst = spttn::make_suite_instance(sk, 42);
  const spttn::Plan plan =
      spttn::make_plan(inst->bound.kernel, inst->bound.stats, set.options);
  spttn::FusedExecutor exec(inst->bound.kernel, plan);
  for (const int threads : {1, 4}) {
    spttn::DenseTensor dense;
    std::vector<double> sparse;
    spttn::ExecArgs args;
    args.sparse = &inst->bound.csf;
    args.dense = inst->bound.dense;
    args.num_threads = threads;
    if (inst->bound.kernel.output_is_sparse()) {
      sparse.assign(static_cast<std::size_t>(inst->bound.csf.nnz()), 0.0);
      args.out_sparse = sparse;
    } else {
      dense = spttn::make_output(inst->bound);
      args.out_dense = &dense;
    }
    exec.execute(args);
    const std::span<const double> out =
        args.out_dense != nullptr
            ? std::span<const double>(dense.data(),
                                      static_cast<std::size_t>(dense.size()))
            : std::span<const double>(sparse);
    *rows += spttn::golden_output_line(sk.name, set.name, threads, out) + "\n";
  }
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw spttn::Error("cannot open " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Print the first line at which a drifted plan differs from its record.
void print_first_difference(const std::string& recorded,
                            const std::string& produced) {
  const std::vector<std::string> a = lines_of(recorded);
  const std::vector<std::string> b = lines_of(produced);
  std::size_t n = 0;
  while (n < a.size() && n < b.size() && a[n] == b[n]) ++n;
  const auto at = [n](const std::vector<std::string>& lines) {
    return n < lines.size() ? lines[n] : std::string("<end of file>");
  };
  std::printf("        line %zu recorded: %s\n", n + 1, at(a).c_str());
  std::printf("        line %zu produced: %s\n", n + 1, at(b).c_str());
}

/// outputs.txt rows keyed by "kernel option_set threads"; the value is the
/// rest of the row (output length and hash).
std::map<std::string, std::string> rows_by_key(const std::string& text) {
  std::map<std::string, std::string> rows;
  for (const std::string& line : lines_of(text)) {
    std::istringstream fields(line);
    std::string kernel, set, threads, rest;
    fields >> kernel >> set >> threads;
    std::getline(fields >> std::ws, rest);
    rows[kernel + " " + set + " " + threads] = rest;
  }
  return rows;
}

/// Print the key of every outputs.txt row that differs from its record, is
/// missing from the recorded file, or is extra in it.
void print_row_drift(const std::string& recorded,
                     const std::string& produced) {
  const auto old_rows = rows_by_key(recorded);
  const auto new_rows = rows_by_key(produced);
  int named = 0;
  for (const auto& [key, value] : new_rows) {
    const auto it = old_rows.find(key);
    if (it == old_rows.end()) {
      std::printf("        missing row %s\n", key.c_str());
      ++named;
    } else if (it->second != value) {
      std::printf("        row %s: recorded %s, produced %s\n", key.c_str(),
                  it->second.c_str(), value.c_str());
      ++named;
    }
  }
  for (const auto& [key, value] : old_rows) {
    if (!new_rows.contains(key)) {
      std::printf("        extra row %s\n", key.c_str());
      ++named;
    }
  }
  if (named == 0) std::printf("        rows equal, order or bytes differ\n");
}

}  // namespace

int main(int argc, char** argv) {
  spttn::Cli cli("spttn_golden");
  const std::string* out_dir =
      cli.add_string("out", "tests/golden", "directory for golden artifacts");
  const bool* check = cli.add_bool(
      "check", false, "compare against existing artifacts instead of writing");
  const std::int64_t* seed =
      cli.add_int("seed", 42, "seed for the suite's random tensors");
  cli.parse(argc, argv);

  const std::filesystem::path dir(*out_dir);
  if (!*check) std::filesystem::create_directories(dir);

  int written = 0;
  int drifted = 0;
  for (const spttn::SuiteKernel& sk : spttn::paper_kernel_suite()) {
    const auto inst =
        spttn::make_suite_instance(sk, static_cast<std::uint64_t>(*seed));
    for (const spttn::LintOptionSet& set : spttn::lint_option_sets()) {
      const spttn::Plan plan = spttn::make_plan(inst->bound.kernel,
                                                inst->bound.stats, set.options);
      const std::string text =
          spttn::serialize_plan(inst->bound.kernel, plan,
                                {{"suite_kernel", sk.name},
                                 {"option_set", set.name},
                                 {"seed", std::to_string(*seed)}});
      const std::filesystem::path file = dir / golden_name(sk.name, set.name);
      if (*check) {
        std::string old;
        try {
          old = read_file(file);
        } catch (const std::exception& e) {
          std::printf("MISSING %s (%s)\n", file.string().c_str(), e.what());
          ++drifted;
          continue;
        }
        if (old != text) {
          std::printf("DRIFT   %s\n", file.string().c_str());
          print_first_difference(old, text);
          ++drifted;
        }
      } else {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        if (!out) {
          std::printf("cannot write %s\n", file.string().c_str());
          return 1;
        }
        out << text;
        ++written;
      }
    }
  }

  // Golden outputs: the 4-thread rows are only reproducible at the lane
  // count they were recorded at.
  spttn::ThreadPool::set_global_threads(4);
  std::string outputs;
  for (const spttn::SuiteKernel& sk : spttn::paper_kernel_suite()) {
    for (const spttn::LintOptionSet& set : spttn::lint_option_sets()) {
      append_output_rows(sk, set, &outputs);
    }
  }
  for (const spttn::SuiteKernel& net : spttn::golden_networks()) {
    append_output_rows(net, spttn::golden_network_options(), &outputs);
  }
  const std::filesystem::path outputs_file = dir / "outputs.txt";
  if (*check) {
    try {
      const std::string old = read_file(outputs_file);
      if (old != outputs) {
        std::printf("DRIFT   %s\n", outputs_file.string().c_str());
        print_row_drift(old, outputs);
        ++drifted;
      }
    } catch (const std::exception& e) {
      std::printf("MISSING %s (%s)\n", outputs_file.string().c_str(),
                  e.what());
      ++drifted;
    }
  } else {
    std::ofstream out(outputs_file, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::printf("cannot write %s\n", outputs_file.string().c_str());
      return 1;
    }
    out << outputs;
    ++written;
  }

  if (*check) {
    std::printf("spttn_golden: %d artifact(s) drifted\n", drifted);
    return drifted == 0 ? 0 : 1;
  }
  std::printf("spttn_golden: wrote %d artifact(s) to %s\n", written,
              dir.string().c_str());
  return 0;
}
