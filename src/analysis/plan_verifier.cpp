#include "analysis/plan_verifier.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "exec/executor.hpp"
#include "util/error.hpp"

namespace spttn {

std::string VerifyDiagnostic::to_string() const {
  std::ostringstream os;
  os << (severity == VerifySeverity::kError ? "error" : "warning") << " ["
     << rule << "]";
  if (!tree_path.empty()) os << " at " << tree_path;
  os << ": " << message;
  return os.str();
}

bool VerifyReport::ok() const { return errors() == 0; }

int VerifyReport::errors() const {
  int n = 0;
  for (const auto& d : diags) {
    if (d.severity == VerifySeverity::kError) ++n;
  }
  return n;
}

int VerifyReport::warnings() const {
  return static_cast<int>(diags.size()) - errors();
}

bool VerifyReport::has(std::string_view rule) const {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const VerifyDiagnostic& d) { return d.rule == rule; });
}

std::string VerifyReport::to_string() const {
  if (diags.empty()) return "clean";
  std::ostringstream os;
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (i) os << "\n";
    os << diags[i].to_string();
  }
  return os.str();
}

namespace {

using Action = LoopTree::Action;
using Node = LoopTree::Node;

bool rel_close(double a, double b, double tol) {
  if (a == b) return true;  // covers +-inf pairs and exact zeros
  if (std::isinf(a) || std::isinf(b)) return false;
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= tol * scale;
}

/// Facts about one top-level root-loop region, derived the way
/// FusedExecutor::analyze_parallel derives them — but from the plan's own
/// loop tree and buffer specs, not from the operand strides of the program
/// the executor runs.
struct RegionFacts {
  int top_position = -1;
  int node_id = -1;
  int root_index = -1;
  bool sparse = false;
  bool par_safe = false;
  bool nest_safe = false;
  bool writes_out_dense = false;
  bool writes_out_sparse = false;
  bool out_dense_rooted = true;
  bool out_dense_inner_rooted = true;
};

/// One verification pass over a plan. Collects diagnostics; never throws on
/// malformed input (every array access is bounds-guarded and a malformed
/// tree short-circuits the structural passes that depend on the walk).
class Checker {
 public:
  Checker(const Kernel& kernel, const Plan& plan,
          const PlannerOptions& planner_options, const SparsityStats* stats,
          const VerifyOptions& options, bool collapse_dense = true)
      : collapse_(collapse_dense),
        k_(kernel),
        plan_(plan),
        popts_(planner_options),
        stats_(stats),
        opts_(options),
        n_terms_(plan.path.num_terms()),
        nodes_(plan.tree.nodes()),
        buffers_(plan.tree.buffers()) {}

  VerifyReport run() {
    if (!check_shapes()) return std::move(report_);
    walk_tree();
    if (!malformed_) {
      check_terms();
      check_buffers();
      analyze_regions();
    }
    check_cost();
    return std::move(report_);
  }

  /// Region facts for the executor cross-check; valid after run() on a
  /// structurally sound plan.
  const std::vector<RegionFacts>& regions() const { return regions_; }
  bool malformed() const { return malformed_; }
  bool buffer_allocated(std::size_t b) const {
    return b < allocated_.size() && allocated_[b] != 0;
  }
  bool buffer_shared(std::size_t b) const {
    return b < shared_.size() && shared_[b] != 0;
  }

 private:
  // --- reporting helpers ---

  void add(std::string rule, VerifySeverity sev, std::string path,
           std::string msg) {
    report_.diags.push_back(
        {std::move(rule), sev, std::move(path), std::move(msg)});
  }
  void error(std::string rule, std::string path, std::string msg) {
    add(std::move(rule), VerifySeverity::kError, std::move(path),
        std::move(msg));
  }
  void warn(std::string rule, std::string path, std::string msg) {
    add(std::move(rule), VerifySeverity::kWarning, std::move(path),
        std::move(msg));
  }

  std::string index_name(int id) const {
    if (id >= 0 && id < k_.num_indices()) return k_.index_name(id);
    return std::string("#").append(std::to_string(id));
  }

  std::string term_name(int t) const {
    if (t + 1 == n_terms_) return k_.output().name;
    return "X" + std::to_string(t + 1);
  }

  /// "i > j" path string for a chain of node ids, optionally ending at a
  /// named leaf action.
  std::string path_str(const std::vector<int>& chain,
                       const std::string& leaf = "") const {
    std::ostringstream os;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i) os << " > ";
      const auto n = static_cast<std::size_t>(chain[i]);
      os << (n < nodes_.size() ? index_name(nodes_[n].index) : "?");
    }
    if (!leaf.empty()) {
      if (!chain.empty()) os << " > ";
      os << leaf;
    }
    return os.str();
  }

  // --- passes ---

  bool check_shapes() {
    if (n_terms_ <= 0) {
      error("plan-empty", "", "contraction path has no terms");
      return false;
    }
    if (static_cast<int>(plan_.order.size()) != n_terms_) {
      error("order-invalid", "",
            "loop order has " + std::to_string(plan_.order.size()) +
                " entries for " + std::to_string(n_terms_) + " path terms");
      return false;
    }
    if (!is_valid_order(plan_.path, plan_.order)) {
      error("order-invalid", "",
            "loop order entries are not permutations of their terms' "
            "referenced indices");
      return false;
    }
    if (popts_.restrict_csf_order &&
        !respects_csf_order(k_, plan_.path, plan_.order)) {
      error("csf-order-violation", "",
            "planner options restrict sparse-carrying terms to CSF storage "
            "order, but the loop order violates it");
    }
    return true;
  }

  /// DFS over the forest. Validates ids, binding, CSF levels; records each
  /// term's ancestor chain and top-level position, reset locations, and
  /// every node's occurrence count.
  void walk_tree() {
    term_chain_.assign(static_cast<std::size_t>(n_terms_), {});
    term_top_.assign(static_cast<std::size_t>(n_terms_), -1);
    term_seen_.assign(static_cast<std::size_t>(n_terms_), 0);
    reset_top_.assign(static_cast<std::size_t>(n_terms_), -1);
    reset_body_.assign(static_cast<std::size_t>(n_terms_), kNoReset);
    reset_pos_.assign(static_cast<std::size_t>(n_terms_), -1);
    reset_seen_.assign(static_cast<std::size_t>(n_terms_), 0);
    node_seen_.assign(nodes_.size(), 0);

    std::vector<int> chain;
    IndexSet bound;
    const auto& top = plan_.tree.top();
    for (std::size_t t = 0; t < top.size(); ++t) {
      walk_body(top, static_cast<int>(t), kTopBody, chain, bound,
                /*sparse_depth=*/0, /*only=*/static_cast<int>(t));
    }
    for (int x = 0; x < n_terms_; ++x) {
      const auto u = static_cast<std::size_t>(x);
      if (term_seen_[u] == 0) {
        error("term-missing", "",
              "path term " + term_name(x) + " never executes in the tree");
        malformed_ = true;
      }
    }
  }

  /// Visit the actions of one body. `body_node` is the owning node id (or
  /// kTopBody); `top_pos` the enclosing top-level action position. When
  /// `only` >= 0, visit just that one body position (used for the top
  /// level, where each action is its own region).
  void walk_body(const std::vector<Action>& body, int top_pos, int body_node,
                 std::vector<int>& chain, IndexSet& bound, int sparse_depth,
                 int only = -1) {
    for (std::size_t pos = 0; pos < body.size(); ++pos) {
      if (only >= 0 && static_cast<int>(pos) != only) continue;
      const Action& a = body[pos];
      switch (a.kind) {
        case Action::Kind::kTerm: {
          if (a.id < 0 || a.id >= n_terms_) {
            error("tree-malformed", path_str(chain),
                  "term action id " + std::to_string(a.id) + " out of range");
            malformed_ = true;
            break;
          }
          const auto u = static_cast<std::size_t>(a.id);
          term_seen_[u] += 1;
          if (term_seen_[u] > 1) {
            error("term-duplicated", path_str(chain, term_name(a.id)),
                  "path term executes more than once");
            malformed_ = true;
            break;
          }
          term_chain_[u] = chain;
          term_top_[u] = top_pos;
          const PathTerm& term = plan_.path.term(a.id);
          if (!term.refs.subset_of(bound)) {
            std::ostringstream os;
            os << "term reads/writes unbound ";
            bool first = true;
            for (int id : (term.refs - bound).elements()) {
              os << (first ? "" : ", ") << index_name(id);
              first = false;
            }
            error("index-unbound", path_str(chain, term_name(a.id)),
                  os.str());
          }
          break;
        }
        case Action::Kind::kReset: {
          if (a.id < 0 || a.id >= n_terms_) {
            error("tree-malformed", path_str(chain),
                  "reset action id " + std::to_string(a.id) +
                      " out of range");
            malformed_ = true;
            break;
          }
          const auto u = static_cast<std::size_t>(a.id);
          reset_seen_[u] += 1;
          if (reset_seen_[u] > 1) {
            error("buffer-reset-duplicated",
                  path_str(chain, "reset " + term_name(a.id)),
                  "buffer is reset more than once per plan");
          } else {
            reset_top_[u] = top_pos;
            reset_body_[u] = body_node;
            reset_pos_[u] = static_cast<int>(pos);
          }
          break;
        }
        case Action::Kind::kLoop: {
          if (a.id < 0 || a.id >= static_cast<int>(nodes_.size())) {
            error("tree-malformed", path_str(chain),
                  "loop action node id " + std::to_string(a.id) +
                      " out of range");
            malformed_ = true;
            break;
          }
          const auto u = static_cast<std::size_t>(a.id);
          node_seen_[u] += 1;
          if (node_seen_[u] > 1) {
            error("tree-malformed", path_str(chain),
                  "loop node " + index_name(nodes_[u].index) +
                      " appears in more than one body (cycle or shared "
                      "subtree)");
            malformed_ = true;
            break;
          }
          const Node& n = nodes_[u];
          std::string here = path_str(chain, index_name(n.index));
          if (n.index < 0 || n.index >= k_.num_indices()) {
            error("tree-malformed", std::move(here),
                  "loop iterates index id " + std::to_string(n.index) +
                      ", which the kernel does not define");
            malformed_ = true;
            break;
          }
          const bool was_bound = bound.contains(n.index);
          if (was_bound) {
            error("index-rebound", here,
                  "index " + index_name(n.index) +
                      " is already bound by an enclosing loop");
          }
          const int lvl = k_.csf_level(n.index);
          const bool should_be_sparse = lvl >= 0 && lvl == sparse_depth;
          if (n.sparse != should_be_sparse) {
            error("csf-iteration-drift", here,
                  n.sparse
                      ? "loop is marked CSF-iterated but index " +
                            index_name(n.index) + " is not the sparse mode "
                            "at sparse depth " + std::to_string(sparse_depth)
                      : "loop is marked dense but index " +
                            index_name(n.index) +
                            " is the sparse mode at sparse depth " +
                            std::to_string(sparse_depth) +
                            " (the executor would iterate the CSF here)");
          }
          if (n.sparse && n.csf_level != lvl) {
            error("csf-level-mismatch", here,
                  "loop records CSF level " + std::to_string(n.csf_level) +
                      " but index " + index_name(n.index) + " is stored at "
                      "level " + std::to_string(lvl));
          }
          if (n.depth != static_cast<int>(chain.size())) {
            warn("node-depth-drift", here,
                  "node records depth " + std::to_string(n.depth) +
                      " but sits at depth " + std::to_string(chain.size()));
          }
          chain.push_back(a.id);
          bound.insert(n.index);
          walk_body(n.body, top_pos, a.id, chain, bound, sparse_depth +
                    (n.sparse ? 1 : 0));
          chain.pop_back();
          if (!was_bound) bound.erase(n.index);
          break;
        }
      }
    }
  }

  /// Each term's root-to-leaf loop chain must spell exactly its declared
  /// loop order (this is also the loop-extent check: the executor derives
  /// every loop's trip count from the index the chain names).
  void check_terms() {
    for (int t = 0; t < n_terms_; ++t) {
      const auto u = static_cast<std::size_t>(t);
      if (term_seen_[u] != 1) continue;
      const auto& chain = term_chain_[u];
      const auto& want = plan_.order[u];
      bool match = chain.size() == want.size();
      for (std::size_t i = 0; match && i < chain.size(); ++i) {
        match = nodes_[static_cast<std::size_t>(chain[i])].index == want[i];
      }
      if (!match) {
        error("loop-order-mismatch", path_str(chain, term_name(t)),
              "term's enclosing loop chain is (" + chain_str(chain) +
                  ") but its declared loop order is (" + order_str(want) +
                  ")");
      }
    }
  }

  std::string chain_str(const std::vector<int>& chain) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i) os << ",";
      os << index_name(nodes_[static_cast<std::size_t>(chain[i])].index);
    }
    return os.str();
  }

  std::string order_str(const std::vector<int>& ids) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i) os << ",";
      os << index_name(ids[i]);
    }
    return os.str();
  }

  /// Buffer def-use, scope and extent rules. Also recomputes each buffer's
  /// Eq. 5 index set (`truth_`), which the parallel pass uses as the
  /// independent disjointness witness.
  void check_buffers() {
    allocated_.assign(static_cast<std::size_t>(n_terms_), 0);
    truth_.assign(static_cast<std::size_t>(n_terms_), IndexSet{});
    for (std::size_t b = 0; b < buffers_.size() &&
                            b < static_cast<std::size_t>(n_terms_);
         ++b) {
      const BufferSpec& spec = buffers_[b];
      const int x = static_cast<int>(b);
      const int y = plan_.path.consumer_of(x);
      if (spec.producer < 0) {
        // Unallocated slot (the final term, or a corrupt spec). A reset
        // for it would zero a zero-length buffer — harmless but drift.
        if (reset_seen_[b] > 0) {
          warn("buffer-reset-bogus", "",
               "reset exists for " + term_name(x) +
                   ", which has no intermediate buffer");
        }
        if (y >= 0) {
          error("buffer-missing", "",
                "term " + term_name(x) + " feeds " + term_name(y) +
                    " but the plan allocates no buffer for it");
        }
        continue;
      }
      if (spec.producer != x) {
        error("buffer-spec-mismatch", "",
              "buffer slot " + std::to_string(b) + " names producer " +
                  std::to_string(spec.producer));
        continue;
      }
      if (y < 0) {
        error("buffer-spec-mismatch", "",
              "final term " + term_name(x) +
                  " writes the kernel output, not a buffer");
        continue;
      }
      allocated_[b] = 1;
      if (spec.consumer != y) {
        error("buffer-spec-mismatch", "",
              "buffer of " + term_name(x) + " names consumer term " +
                  std::to_string(spec.consumer + 1) + " but the path's "
                  "consumer is " + term_name(y));
      }

      // Extents: every buffer dimension must equal the kernel's declared
      // extent of the index it materializes.
      bool extent_ok = spec.indices.size() == spec.dims.size();
      std::int64_t size = 1;
      for (std::size_t m = 0; extent_ok && m < spec.indices.size(); ++m) {
        const int id = spec.indices[m];
        if (id < 0 || id >= k_.num_indices() ||
            spec.dims[m] != k_.index_dim(id)) {
          extent_ok = false;
          break;
        }
        size *= spec.dims[m];
      }
      if (!extent_ok || size != spec.size) {
        error("buffer-extent-mismatch", "",
              "buffer of " + term_name(x) +
                  " has dims/size inconsistent with the kernel's declared "
                  "index extents");
      }

      // Eq. 5 recompute at the producer/consumer deepest common ancestor.
      const auto& ax = term_chain_[b];
      const auto& ay = term_chain_[static_cast<std::size_t>(y)];
      std::size_t common = 0;
      while (common < ax.size() && common < ay.size() &&
             ax[common] == ay[common]) {
        ++common;
      }
      IndexSet removed;
      for (std::size_t a = 0; a < common; ++a) {
        removed.insert(nodes_[static_cast<std::size_t>(ax[a])].index);
      }
      const IndexSet truth = plan_.path.term(x).out - removed;
      truth_[b] = truth;
      IndexSet spec_set;
      for (int id : spec.indices) {
        if (id >= 0 && id < IndexSet::kMaxIndex) spec_set.insert(id);
      }
      if (spec_set != truth) {
        error("buffer-scope", path_str({ax.begin(), ax.begin() +
                                        static_cast<std::ptrdiff_t>(common)},
                                       term_name(x)),
              "buffer indices (" + order_str(spec.indices) +
                  ") differ from the Eq. 5 recomputation (" +
                  order_str(truth.to_vector()) +
                  ") at the producer/consumer common scope — the buffer is "
                  "allocated at a different scope than the cost model "
                  "charged");
      } else {
        // Same set: the layout must also follow the producer's loop order
        // so the producer's innermost writes stay contiguous (what the
        // cache model assumed).
        std::vector<int> want;
        for (int id : plan_.order[b]) {
          if (truth.contains(id)) want.push_back(id);
        }
        if (want != spec.indices) {
          warn("buffer-layout-drift", "",
               "buffer of " + term_name(x) + " orders indices (" +
                   order_str(spec.indices) + ") instead of the producer's "
                   "loop order (" + order_str(want) + ")");
        }
      }

      // Def-use: reset exists, sits in the DCA body, and precedes the
      // producer's branch; the producer's branch precedes the consumer's.
      const int dca_body = common == 0
                               ? kTopBody
                               : ax[common - 1];
      const std::vector<Action>& body =
          dca_body == kTopBody
              ? plan_.tree.top()
              : nodes_[static_cast<std::size_t>(dca_body)].body;
      const auto branch_pos = [&](const std::vector<int>& chain,
                                  int term) -> int {
        Action::Kind kind;
        int id;
        if (common < chain.size()) {
          kind = Action::Kind::kLoop;
          id = chain[common];
        } else {
          kind = Action::Kind::kTerm;
          id = term;
        }
        for (std::size_t p = 0; p < body.size(); ++p) {
          if (body[p].kind == kind && body[p].id == id) {
            return static_cast<int>(p);
          }
        }
        return -1;
      };
      const int px = branch_pos(ax, x);
      const int py = branch_pos(ay, y);
      const std::string scope =
          path_str({ax.begin(),
                    ax.begin() + static_cast<std::ptrdiff_t>(common)});
      if (px < 0 || py < 0) {
        error("tree-malformed", scope,
              "producer/consumer branches of " + term_name(x) +
                  " not found in their common scope");
        continue;
      }
      if (px > py || (px == py && common >= ax.size())) {
        error("buffer-use-before-def", scope,
              term_name(y) + " reads the buffer of " + term_name(x) +
                  " before the producer has run");
      }
      if (reset_seen_[b] == 0) {
        error("buffer-reset-missing", scope,
              "buffer of " + term_name(x) + " is never reset — reads see "
              "stale values from the previous iteration");
        continue;
      }
      if (reset_body_[b] != dca_body) {
        error("buffer-reset-scope", scope,
              "buffer of " + term_name(x) + " is reset at the wrong loop "
              "depth (not in the producer/consumer deepest-common-ancestor "
              "body) — values would leak across iterations of the scope "
              "the cost model charged the buffer to");
      } else if (reset_pos_[b] > px) {
        error("buffer-reset-order", scope,
              "reset of " + term_name(x) + "'s buffer runs after the "
              "producer wrote it");
      }
    }
  }

  /// True when the executor's dense-chain collapse would fold this node's
  /// whole subtree into a single strided term (mirrors Impl::try_collapse).
  bool collapsible(int node_id) const {
    int cur = node_id;
    while (true) {
      const Node& n = nodes_[static_cast<std::size_t>(cur)];
      if (n.sparse || n.body.size() != 1) return false;
      const Action& a = n.body.front();
      if (a.kind == Action::Kind::kTerm) return true;
      if (a.kind != Action::Kind::kLoop) return false;
      if (a.id < 0 || a.id >= static_cast<int>(nodes_.size())) return false;
      cur = a.id;
    }
  }

  /// Region classification (mirrors FusedExecutor::analyze_parallel from
  /// the tree + specs) and the independent disjointness proof.
  void analyze_regions() {
    const int nb = n_terms_;
    // Sharedness, executor rule: a buffer is worker-private only when its
    // reset, producer and consumer all sit under the same top-level loop.
    shared_.assign(static_cast<std::size_t>(nb), 0);
    const auto& top = plan_.tree.top();
    for (int b = 0; b < nb; ++b) {
      const auto u = static_cast<std::size_t>(b);
      if (!allocated_[u]) continue;
      const int pt = term_top_[u];
      const int ct = plan_.path.consumer_of(b) >= 0
                         ? term_top_[static_cast<std::size_t>(
                               plan_.path.consumer_of(b))]
                         : -1;
      const bool local =
          pt >= 0 && pt < static_cast<int>(top.size()) &&
          top[static_cast<std::size_t>(pt)].kind == Action::Kind::kLoop &&
          ct == pt && reset_top_[u] == pt;
      shared_[u] = local ? 0 : 1;
    }

    const bool out_sparse = k_.output_is_sparse();
    const int final_term = n_terms_ - 1;
    for (std::size_t t = 0; t < top.size(); ++t) {
      if (top[t].kind != Action::Kind::kLoop) continue;
      const auto nid = static_cast<std::size_t>(top[t].id);
      const Node& root = nodes_[nid];
      RegionFacts f;
      f.top_position = static_cast<int>(t);
      f.node_id = top[t].id;
      f.root_index = root.index;
      f.sparse = root.sparse;
      f.writes_out_dense =
          !out_sparse &&
          term_top_[static_cast<std::size_t>(final_term)] ==
              static_cast<int>(t);
      f.writes_out_sparse =
          out_sparse &&
          term_top_[static_cast<std::size_t>(final_term)] ==
              static_cast<int>(t);
      if (f.writes_out_dense) {
        f.out_dense_rooted = k_.output().iset.contains(root.index);
      }

      // Classification, exactly as the executor would decide from the
      // plan's metadata.
      bool safe = !root.sparse || root.csf_level == 0;
      for (int b = 0; b < nb && safe; ++b) {
        const auto u = static_cast<std::size_t>(b);
        if (!allocated_[u] || !shared_[u]) continue;
        if (reset_top_[u] == static_cast<int>(t)) {
          safe = false;
          break;
        }
        if (term_top_[u] != static_cast<int>(t)) continue;
        const bool rooted =
            std::find(buffers_[u].indices.begin(), buffers_[u].indices.end(),
                      root.index) != buffers_[u].indices.end();
        if (!rooted) safe = false;
      }
      f.par_safe = safe;

      // Independent proof: when the region would be partitioned, every
      // shared buffer written under the root must truly be strided by the
      // root index — from the Eq. 5 recomputation, not the spec the
      // classification trusted. Distinct tasks own distinct root values,
      // so root-stridedness is exactly disjointness of their write sets.
      if (safe) {
        for (int b = 0; b < nb; ++b) {
          const auto u = static_cast<std::size_t>(b);
          if (!allocated_[u] || !shared_[u]) continue;
          if (term_top_[u] != static_cast<int>(t)) continue;
          if (!truth_[u].contains(root.index)) {
            error("par-write-overlap",
                  path_str({}, index_name(root.index)),
                  "root loop " + index_name(root.index) + " would be "
                  "partitioned, but the recomputed index set of " +
                  term_name(b) + "'s shared buffer does not contain the "
                  "root — distinct tasks would write overlapping regions");
          }
        }
      }

      // Nested-split eligibility (mirrors the executor's program: a
      // single-loop body that the dense-chain collapse would not fold
      // away).
      int inner_id = -1;
      if (root.body.size() == 1 &&
          root.body.front().kind == Action::Kind::kLoop) {
        const int cand = root.body.front().id;
        if (cand >= 0 && cand < static_cast<int>(nodes_.size()) &&
            (!collapse_ || !collapsible(cand))) {
          inner_id = cand;
        }
      }
      bool nest = safe && inner_id >= 0;
      if (nest) {
        const Node& inner = nodes_[static_cast<std::size_t>(inner_id)];
        if (inner.sparse) {
          const int want_level = root.sparse ? root.csf_level + 1 : 0;
          nest = inner.csf_level == want_level;
        }
        for (int b = 0; b < nb && nest; ++b) {
          const auto u = static_cast<std::size_t>(b);
          if (!allocated_[u] || !shared_[u]) continue;
          if (term_top_[u] == static_cast<int>(t)) nest = false;
        }
      }
      f.nest_safe = nest;
      if (nest && f.writes_out_dense) {
        const Node& inner = nodes_[static_cast<std::size_t>(inner_id)];
        f.out_dense_inner_rooted = k_.output().iset.contains(inner.index);
      }
      regions_.push_back(f);
    }
  }

  void check_cost() {
    // Fingerprint first: it needs no tree.
    if (stats_ != nullptr && stats_->fingerprint() != 0 &&
        plan_.sparsity_fingerprint != 0 &&
        stats_->fingerprint() != plan_.sparsity_fingerprint) {
      error("fingerprint-mismatch", "",
            "plan was derived from a structurally different tensor than "
            "the sparsity statistics in hand (stale cached plan?)");
    }

    PlannerOptions effective = popts_;
    if (plan_.buffer_dim_bound > 0) {
      effective.buffer_dim_bound = plan_.buffer_dim_bound;
    }

    if (plan_.buffer_dim_bound > 0 &&
        effective.cost == CostKind::kBoundedBufferBlas && !malformed_) {
      const int dim = plan_.tree.max_buffer_dim();
      if (dim > effective.buffer_dim_bound) {
        error("buffer-bound-violation", "",
              "tree materializes a " + std::to_string(dim) +
                  "-dimensional intermediate but the plan records bound " +
                  std::to_string(effective.buffer_dim_bound));
      }
    }

    if (opts_.check_cost) {
      const std::unique_ptr<TreeCost> model =
          make_cost_model(effective, stats_);
      Cost got;
      bool evaluated = false;
      try {
        got = evaluate_cost(k_, plan_.path, plan_.order, *model);
        evaluated = true;
      } catch (const Error& e) {
        error("order-invalid", "",
              std::string("cost recomputation rejected the loop order: ") +
                  e.what());
      }
      if (evaluated &&
          (!rel_close(got.primary, plan_.cost.primary, opts_.rel_tol) ||
           !rel_close(got.secondary, plan_.cost.secondary, opts_.rel_tol) ||
           !rel_close(got.tertiary, plan_.cost.tertiary, opts_.rel_tol))) {
        error("cost-drift", "",
              "recorded cost " + plan_.cost.to_string() +
                  " != recomputed " + got.to_string() +
                  " under model " + model->name() +
                  " — planner and cost model have drifted");
      }
    }

    if (opts_.check_flops && stats_ != nullptr) {
      const double got = path_flops(k_, plan_.path, *stats_);
      if (!rel_close(got, plan_.flops, opts_.rel_tol)) {
        error("flops-drift", "",
              "recorded FLOP estimate " + std::to_string(plan_.flops) +
                  " != recomputed " + std::to_string(got));
      }
    }
  }

  static constexpr int kTopBody = -1;
  static constexpr int kNoReset = -2;

  const bool collapse_;  ///< mirror the executor's dense-chain collapse
  const Kernel& k_;
  const Plan& plan_;
  const PlannerOptions& popts_;
  const SparsityStats* stats_;
  const VerifyOptions& opts_;
  const int n_terms_;
  const std::vector<Node>& nodes_;
  const std::vector<BufferSpec>& buffers_;

  VerifyReport report_;
  bool malformed_ = false;
  std::vector<std::vector<int>> term_chain_;
  std::vector<int> term_top_;
  std::vector<int> term_seen_;
  std::vector<int> reset_top_;
  std::vector<int> reset_body_;  ///< node id owning the reset (kTopBody=top)
  std::vector<int> reset_pos_;   ///< position within that body
  std::vector<int> reset_seen_;
  std::vector<int> node_seen_;
  std::vector<char> allocated_;
  std::vector<char> shared_;
  std::vector<IndexSet> truth_;  ///< Eq. 5 recomputed buffer index sets
  std::vector<RegionFacts> regions_;
};

}  // namespace

PlanVerifier::PlanVerifier(const Kernel& kernel,
                           const PlannerOptions& planner_options,
                           const SparsityStats* stats,
                           const VerifyOptions& options)
    : kernel_(&kernel),
      planner_options_(planner_options),
      stats_(stats),
      options_(options) {}

VerifyReport PlanVerifier::verify(const Plan& plan) const {
  Checker checker(*kernel_, plan, planner_options_, stats_, options_);
  return checker.run();
}

VerifyReport PlanVerifier::verify(const Plan& plan,
                                  const FusedExecutor& exec) const {
  Checker checker(*kernel_, plan, planner_options_, stats_, options_,
                  exec.collapse_dense());
  VerifyReport report = checker.run();
  if (checker.malformed()) return report;

  // Cross-check the verifier's region facts (derived from the plan's tree)
  // against the executor's locality analysis (derived from the operand and
  // chain strides of the lowered program it runs). Disagreement in the
  // permissive direction — the executor would partition where the verifier
  // cannot prove disjointness — is an error; the executor being *more*
  // conservative only loses parallelism.
  const auto mine = checker.regions();
  const auto theirs = exec.parallel_regions();
  const auto add = [&](VerifySeverity sev, std::string msg) {
    report.diags.push_back({"par-analysis-mismatch", sev, "",
                            std::move(msg)});
  };
  if (mine.size() != theirs.size()) {
    add(VerifySeverity::kError,
        "verifier sees " + std::to_string(mine.size()) +
            " root regions, the executor compiled " +
            std::to_string(theirs.size()));
    return report;
  }
  for (std::size_t r = 0; r < mine.size(); ++r) {
    const RegionFacts& m = mine[r];
    const FusedExecutor::ParallelRegionInfo& e = theirs[r];
    const std::string where =
        "root region '" +
        (m.root_index >= 0 && m.root_index < kernel_->num_indices()
             ? kernel_->index_name(m.root_index)
             : std::string("?")) +
        "'";
    if (m.top_position != e.top_position || m.root_index != e.root_index) {
      add(VerifySeverity::kError,
          where + ": region placement differs between plan tree and "
                  "executor program");
      continue;
    }
    const auto flag = [&](const char* name, bool mine_v, bool exec_v,
                          bool permissive_is_error) {
      if (mine_v == exec_v) return;
      const bool exec_permissive = exec_v && !mine_v;
      if (permissive_is_error && exec_permissive) {
        add(VerifySeverity::kError,
            where + ": executor claims " + name +
                " but the verifier cannot prove it from the plan");
      } else {
        add(VerifySeverity::kWarning,
            where + ": " + name + " differs (verifier=" +
                (mine_v ? "true" : "false") + ", executor=" +
                (exec_v ? "true" : "false") + ")");
      }
    };
    flag("par_safe", m.par_safe, e.par_safe, true);
    flag("nest_safe", m.nest_safe, e.nest_safe, true);
    flag("out_dense_rooted", m.out_dense_rooted, e.out_dense_rooted, true);
    flag("out_dense_inner_rooted", m.out_dense_inner_rooted,
         e.out_dense_inner_rooted, true);
    flag("writes_out_dense", m.writes_out_dense, e.writes_out_dense, false);
    flag("writes_out_sparse", m.writes_out_sparse, e.writes_out_sparse,
         false);
  }
  const auto exec_shared = exec.shared_buffers();
  for (std::size_t b = 0; b < exec_shared.size(); ++b) {
    const bool mine_shared =
        checker.buffer_allocated(b) && checker.buffer_shared(b);
    if (mine_shared != exec_shared[b]) {
      // A buffer the executor treats as private while the verifier proves
      // it shared means workers would race on it.
      add(exec_shared[b] ? VerifySeverity::kWarning : VerifySeverity::kError,
          "buffer of X" + std::to_string(b + 1) +
              ": sharedness differs (verifier=" +
              (mine_shared ? "shared" : "private") + ", executor=" +
              (exec_shared[b] ? "shared" : "private") + ")");
    }
  }
  return report;
}

VerifyReport verify_plan(const Kernel& kernel, const Plan& plan,
                         const PlannerOptions& planner_options,
                         const SparsityStats* stats) {
  return PlanVerifier(kernel, planner_options, stats).verify(plan);
}

void verify_plan_or_throw(const Kernel& kernel, const Plan& plan,
                          const PlannerOptions& planner_options,
                          const SparsityStats* stats) {
  const VerifyReport report =
      verify_plan(kernel, plan, planner_options, stats);
  SPTTN_CHECK_MSG(report.ok(), "plan verification failed for kernel "
                                   << kernel.to_string() << ":\n"
                                   << report.to_string());
}

VerifyReport verify_external_plan(const Kernel& kernel, const Plan& plan,
                                  const FusedExecutor* exec) {
  PlannerOptions relaxed;
  relaxed.restrict_csf_order = false;
  VerifyOptions structural;
  structural.check_cost = false;
  structural.check_flops = false;
  const PlanVerifier verifier(kernel, relaxed, nullptr, structural);
  return exec != nullptr ? verifier.verify(plan, *exec) : verifier.verify(plan);
}

}  // namespace spttn
