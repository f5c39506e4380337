#include "core/contraction_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace spttn {

int ContractionPath::consumer_of(int i) const {
  for (int j = i + 1; j < num_terms(); ++j) {
    const PathTerm& t = term(j);
    const auto uses = [&](const PathOperand& op) {
      return op.kind == PathOperand::Kind::kIntermediate && op.id == i;
    };
    if (uses(t.lhs) || uses(t.rhs)) return j;
  }
  return -1;
}

bool ContractionPath::csf_prefix_executable(const Kernel& kernel) const {
  return std::all_of(terms.begin(), terms.end(), [&](const PathTerm& t) {
    return term_csf_prefix_executable(kernel, t);
  });
}

std::string ContractionPath::to_string(const Kernel& kernel) const {
  const auto render_operand = [&](const PathOperand& op) {
    std::string name = op.kind == PathOperand::Kind::kInput
                           ? kernel.input(op.id).name
                           : std::string("X").append(std::to_string(op.id + 1));
    std::string s = name + "(";
    bool first = true;
    // Render indices in kernel id order for intermediates; original order
    // for inputs.
    if (op.kind == PathOperand::Kind::kInput) {
      for (int id : kernel.input(op.id).idx) {
        if (!first) s += ",";
        s += kernel.index_name(id);
        first = false;
      }
    } else {
      for (int id : op.iset.elements()) {
        if (!first) s += ",";
        s += kernel.index_name(id);
        first = false;
      }
    }
    return s + ")";
  };
  std::string s;
  for (int i = 0; i < num_terms(); ++i) {
    if (i) s += "; ";
    const PathTerm& t = term(i);
    s += render_operand(t.lhs) + "*" + render_operand(t.rhs) + " -> ";
    if (i + 1 == num_terms()) {
      s += kernel.output().name;
    } else {
      s.append("X").append(std::to_string(i + 1));
    }
    s += "(";
    bool first = true;
    for (int id : t.out.elements()) {
      if (!first) s += ",";
      s += kernel.index_name(id);
      first = false;
    }
    s += ")";
  }
  return s;
}

SparsityStats SparsityStats::from_coo(const CooTensor& coo) {
  SPTTN_CHECK_MSG(coo.is_sorted(), "SparsityStats needs sort_dedup()ed COO");
  SparsityStats s;
  s.fingerprint_ = coo.structure_hash();
  s.prefix_.resize(static_cast<std::size_t>(coo.order()) + 1);
  for (int k = 0; k <= coo.order(); ++k) {
    s.prefix_[static_cast<std::size_t>(k)] = coo.nnz_prefix(k);
  }
  return s;
}

SparsityStats SparsityStats::uniform(const std::vector<std::int64_t>& dims,
                                     std::int64_t nnz) {
  SparsityStats s;
  s.prefix_.resize(dims.size() + 1);
  s.prefix_[0] = nnz > 0 ? 1 : 0;
  double space = 1;
  for (std::size_t k = 0; k < dims.size(); ++k) {
    space *= static_cast<double>(dims[k]);
    // Expected distinct prefixes when nnz coordinates are uniform:
    // space * (1 - (1 - 1/space)^nnz) ≈ min(space, nnz) to within a
    // constant; we use the exact expectation for better estimates.
    const double expected =
        space * (1.0 - std::exp(static_cast<double>(nnz) *
                                std::log1p(-1.0 / space)));
    s.prefix_[k + 1] = std::min<std::int64_t>(
        nnz, std::max<std::int64_t>(1, static_cast<std::int64_t>(expected)));
  }
  s.prefix_[dims.size()] = nnz;
  return s;
}

double term_flops(const Kernel& kernel, const PathTerm& term,
                  const SparsityStats& stats) {
  const auto& csf_order = kernel.sparse_ref().idx;
  IndexSet prefix;
  for (int id : csf_order) {
    if (!term.sparse_refs.contains(id)) break;
    prefix.insert(id);
  }
  // A term outside every CSF loop runs its dense extents once.
  double iters = prefix.empty()
                     ? 1.0
                     : static_cast<double>(stats.prefix_nnz(prefix.size()));
  for (int id : (term.refs - prefix).elements()) {
    iters *= static_cast<double>(kernel.index_dim(id));
  }
  return 2.0 * iters;
}

double path_flops(const Kernel& kernel, const ContractionPath& path,
                  const SparsityStats& stats) {
  double total = 0;
  for (const PathTerm& t : path.terms) total += term_flops(kernel, t, stats);
  return total;
}

bool term_csf_prefix_executable(const Kernel& kernel, const PathTerm& term) {
  if (!term.carries_sparse) return true;
  const auto& csf_order = kernel.sparse_ref().idx;
  IndexSet prefix;
  const int k = term.sparse_refs.size();
  for (int l = 0; l < k; ++l) {
    prefix.insert(csf_order[static_cast<std::size_t>(l)]);
  }
  return term.sparse_refs == prefix;
}

std::vector<PathItem> input_items(const Kernel& kernel) {
  std::vector<PathItem> items(static_cast<std::size_t>(kernel.num_inputs()));
  for (int i = 0; i < kernel.num_inputs(); ++i) {
    PathItem& it = items[static_cast<std::size_t>(i)];
    it.op.kind = PathOperand::Kind::kInput;
    it.op.id = i;
    it.op.iset = kernel.input(i).iset;
    it.carries_sparse = (i == kernel.sparse_input());
  }
  return items;
}

PathTerm contract_pair(const Kernel& kernel, const std::vector<PathItem>& items,
                       std::size_t a, std::size_t b,
                       std::vector<PathItem>* rest) {
  // Indices needed later = union over other items of their indices, plus the
  // kernel output indices.
  IndexSet needed = kernel.output_indices();
  for (std::size_t c = 0; c < items.size(); ++c) {
    if (c == a || c == b) continue;
    needed |= items[c].op.iset;
  }
  PathTerm term;
  term.lhs = items[a].op;
  term.rhs = items[b].op;
  term.refs = items[a].op.iset | items[b].op.iset;
  term.out = term.refs & needed;
  term.carries_sparse = items[a].carries_sparse || items[b].carries_sparse;
  term.sparse_refs = term.refs & kernel.sparse_modes();
  if (rest == nullptr) return term;

  PathItem merged;
  merged.op.kind = PathOperand::Kind::kIntermediate;
  merged.op.id = kernel.num_inputs() - static_cast<int>(items.size());
  merged.op.iset = term.out;
  merged.carries_sparse = term.carries_sparse;
  // Remove b then replace a (preserves order enough for enumeration
  // completeness; pair choice is order-insensitive).
  rest->clear();
  rest->reserve(items.size() - 1);
  for (std::size_t c = 0; c < items.size(); ++c) {
    if (c == b) continue;
    rest->push_back(c == a ? merged : items[c]);
  }
  return term;
}

namespace {

void enumerate_rec(const Kernel& kernel, const std::vector<PathItem>& items,
                   ContractionPath& partial,
                   std::vector<ContractionPath>& out) {
  const std::size_t n = items.size();
  if (n == 1) {
    out.push_back(partial);
    return;
  }
  std::vector<PathItem> rest;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      partial.terms.push_back(contract_pair(kernel, items, a, b, &rest));
      enumerate_rec(kernel, rest, partial, out);
      partial.terms.pop_back();
    }
  }
}

}  // namespace

std::vector<ContractionPath> enumerate_paths(const Kernel& kernel) {
  std::vector<ContractionPath> out;
  // A single-input kernel (e.g. a plain reduction) has no contraction path.
  if (kernel.num_inputs() < 2) return out;
  ContractionPath partial;
  enumerate_rec(kernel, input_items(kernel), partial, out);
  return out;
}

std::uint64_t count_paths(int n) {
  SPTTN_CHECK(n >= 2);
  // T(n) = C(n,2) * T(n-1), T(2) = 1.
  constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::uint64_t t = 1;
  for (int i = 3; i <= n; ++i) {
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(i - 1) / 2;
    if (t > kMax / pairs) return kMax;
    t *= pairs;
  }
  return t;
}

ContractionPath chain_path(const Kernel& kernel, std::vector<int> dense_order) {
  if (dense_order.empty()) {
    for (int i = 0; i < kernel.num_inputs(); ++i) {
      if (i != kernel.sparse_input()) dense_order.push_back(i);
    }
  }
  SPTTN_CHECK_MSG(static_cast<int>(dense_order.size()) ==
                      kernel.num_inputs() - 1,
                  "chain_path needs every non-sparse input exactly once");
  ContractionPath path;
  PathOperand running;
  running.kind = PathOperand::Kind::kInput;
  running.id = kernel.sparse_input();
  running.iset = kernel.sparse_ref().iset;
  for (std::size_t step = 0; step < dense_order.size(); ++step) {
    const int input = dense_order[step];
    SPTTN_CHECK(input != kernel.sparse_input());
    PathTerm term;
    term.lhs = running;
    term.rhs.kind = PathOperand::Kind::kInput;
    term.rhs.id = input;
    term.rhs.iset = kernel.input(input).iset;
    term.refs = term.lhs.iset | term.rhs.iset;
    IndexSet needed = kernel.output_indices();
    for (std::size_t later = step + 1; later < dense_order.size(); ++later) {
      needed |= kernel.input(dense_order[later]).iset;
    }
    term.out = term.refs & needed;
    term.carries_sparse = true;  // sparse data flows through every term
    term.sparse_refs = term.refs & kernel.sparse_modes();

    running.kind = PathOperand::Kind::kIntermediate;
    running.id = path.num_terms();
    running.iset = term.out;
    path.terms.push_back(std::move(term));
  }
  return path;
}

}  // namespace spttn
