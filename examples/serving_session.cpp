// Serving sessions: bind a sparse tensor once, serve many contractions.
//
//   build/examples/serving_session
//
// Demonstrates the plan/format caching layer (src/serve/): a Session owns
// one CSF build + one stats extraction, every kernel resolves through the
// process-wide KernelCache (the planner search runs at most once per
// distinct kernel). The timing table shows per-iteration plan cost
// collapsing to ~0 after the first iteration — the paper's
// search-once-execute-many value proposition made a process-wide property.
#include <iostream>
#include <vector>

#include "serve/session.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

int main() {
  using namespace spttn;

  Rng rng(2026);
  const CooTensor t =
      hierarchical_coo({1200, 900, 1000}, 500, {40.0, 6.0}, rng);
  const DenseTensor u0 = random_dense({1200, 32}, rng);
  const DenseTensor u1 = random_dense({900, 32}, rng);
  const DenseTensor u2 = random_dense({1000, 32}, rng);
  std::cout << "sparse tensor: " << t.describe() << "\n\n";

  // Prepare the CP-ALS per-mode MTTKRP family. Each prepare() is a cache
  // miss the first time (planner search runs) and a cache hit from then on
  // — including in future sessions over the same structure.
  const std::vector<std::string> exprs = {
      "M0(i,r) = T(i,j,k) * U1(j,r) * U2(k,r)",
      "M1(j,r) = T(i,j,k) * U0(i,r) * U2(k,r)",
      "M2(k,r) = T(i,j,k) * U0(i,r) * U1(j,r)",
  };
  const std::vector<std::vector<const DenseTensor*>> factors = {
      {&u1, &u2}, {&u0, &u2}, {&u0, &u1}};

  std::cout << "iter   prepare[ms]   exec[ms]   (prepare = parse+bind+plan; "
               "hits skip the search)\n";
  std::vector<int> ids(exprs.size(), -1);
  for (int iter = 0; iter < 4; ++iter) {
    // Fresh session per iteration to show the cross-session amortization;
    // within one session prepare() is memoized by expression anyway. Each
    // binds once: CSF + exact sparsity statistics + structure fingerprint.
    Session s(t);
    Timer prep_t;
    for (std::size_t m = 0; m < exprs.size(); ++m) {
      ids[m] = s.prepare(exprs[m], factors[m]);
    }
    const double prep_ms = prep_t.millis();
    Timer exec_t;
    for (std::size_t m = 0; m < exprs.size(); ++m) {
      DenseTensor out = s.make_output(ids[m]);
      s.run(ids[m], &out);
    }
    std::cout << strfmt("%4d   %11.3f   %8.3f\n", iter + 1, prep_ms,
                        exec_t.millis());
  }

  const auto c = KernelCache::global().counters();
  std::cout << "\nglobal KernelCache: " << c.hits << " hits, " << c.misses
            << " misses, " << c.evictions << " evictions, " << c.entries
            << " resident entries\n";
  std::cout << "(every iteration after the first served its plans from the "
               "cache — the planner searched exactly once per kernel)\n";
  return 0;
}
