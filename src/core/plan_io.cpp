#include "core/plan_io.hpp"

#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace spttn {

namespace {

constexpr const char* kHeader = "spttn-plan v1";
/// Upper bound on any serialized count (terms, nodes, actions, buffers,
/// meta entries). Real plans are tiny (tens of nodes); the cap exists so a
/// corrupt count cannot drive a multi-gigabyte allocation before the
/// checksum or a later parse error is reached.
constexpr std::int64_t kMaxCount = 1 << 20;

std::string hex64(std::uint64_t v) {
  char buf[17];
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = "0123456789abcdef"[(v >> (4 * i)) & 0xf];
  }
  buf[16] = '\0';
  return std::string(buf);
}

std::string hex_double(double d) { return hex64(std::bit_cast<std::uint64_t>(d)); }

std::uint64_t payload_checksum(const std::string& payload) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (char c : payload) {
    h = hash_mix(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

/// Line/token cursor over the serialized text with located errors.
class Reader {
 public:
  explicit Reader(const std::string& text) : in_(text) {}

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("plan deserialize: line " + std::to_string(line_no_) + ": " +
                msg);
  }

  /// Advance to the next line; false at end of input.
  bool next_line() {
    if (!std::getline(in_, line_)) return false;
    ++line_no_;
    tokens_.clear();
    tok_ = 0;
    std::istringstream ls(line_);
    std::string t;
    while (ls >> t) tokens_.push_back(std::move(t));
    return true;
  }

  /// Advance and require the line's first token to be `key`.
  void expect_line(const std::string& key) {
    if (!next_line()) fail("unexpected end of input, expected '" + key + "'");
    if (tokens_.empty() || tokens_[0] != key) {
      fail("expected '" + key + "' line, got '" + line_ + "'");
    }
    tok_ = 1;  // consume the keyword
  }

  const std::string& token() {
    if (tok_ >= tokens_.size()) fail("missing field");
    return tokens_[tok_++];
  }

  bool tokens_left() const { return tok_ < tokens_.size(); }

  std::int64_t read_int(std::int64_t lo, std::int64_t hi) {
    const std::string& t = token();
    std::int64_t v = 0;
    const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || p != t.data() + t.size()) {
      fail("malformed integer '" + t + "'");
    }
    if (v < lo || v > hi) {
      fail("integer " + t + " out of range [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]");
    }
    return v;
  }

  std::uint64_t read_hex() {
    const std::string& t = token();
    std::uint64_t v = 0;
    const auto [p, ec] =
        std::from_chars(t.data(), t.data() + t.size(), v, 16);
    if (ec != std::errc() || p != t.data() + t.size()) {
      fail("malformed hex field '" + t + "'");
    }
    return v;
  }

  double read_double_bits() { return std::bit_cast<double>(read_hex()); }

  /// Rest of the current line (for free-form fields like the expression).
  std::string rest_of_line() {
    std::string rest;
    while (tok_ < tokens_.size()) {
      if (!rest.empty()) rest += ' ';
      rest += tokens_[tok_++];
    }
    return rest;
  }

  const std::string& current_line() const { return line_; }

 private:
  std::istringstream in_;
  std::string line_;
  std::vector<std::string> tokens_;
  std::size_t tok_ = 0;
  int line_no_ = 0;
};

void write_operand(std::ostringstream& os, const PathOperand& op) {
  os << ' ' << (op.kind == PathOperand::Kind::kIntermediate ? 1 : 0) << ' '
     << op.id << ' ' << hex64(op.iset.bits());
}

PathOperand read_operand(Reader& r) {
  PathOperand op;
  op.kind = r.read_int(0, 1) == 1 ? PathOperand::Kind::kIntermediate
                                  : PathOperand::Kind::kInput;
  op.id = static_cast<int>(r.read_int(0, kMaxCount));
  op.iset = IndexSet(r.read_hex());
  return op;
}

}  // namespace

std::string LoadedPlan::meta_value(const std::string& key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return {};
}

std::string serialize_plan(
    const Kernel& kernel, const Plan& plan,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  SPTTN_CHECK_MSG(kernel.dims_bound(),
                  "plan serialization needs bound index dimensions");
  std::ostringstream os;
  os << kHeader << '\n';
  os << "expr " << kernel.to_string() << '\n';
  os << "sparse " << kernel.sparse_ref().name << '\n';
  os << "indices " << kernel.num_indices() << '\n';
  for (int id = 0; id < kernel.num_indices(); ++id) {
    os << "index " << kernel.index_name(id) << ' ' << kernel.index_dim(id)
       << '\n';
  }

  os << "terms " << plan.path.num_terms() << '\n';
  for (const PathTerm& t : plan.path.terms) {
    os << "term";
    write_operand(os, t.lhs);
    write_operand(os, t.rhs);
    os << ' ' << hex64(t.refs.bits()) << ' ' << hex64(t.out.bits()) << ' '
       << (t.carries_sparse ? 1 : 0) << ' ' << hex64(t.sparse_refs.bits())
       << '\n';
  }

  os << "order " << plan.order.size() << '\n';
  for (const std::vector<int>& term_order : plan.order) {
    os << "oterm " << term_order.size();
    for (int id : term_order) os << ' ' << id;
    os << '\n';
  }

  os << "nodes " << plan.tree.nodes().size() << '\n';
  for (const LoopTree::Node& n : plan.tree.nodes()) {
    os << "node " << n.index << ' ' << (n.sparse ? 1 : 0) << ' '
       << n.csf_level << ' ' << n.depth << ' ' << n.body.size();
    for (const LoopTree::Action& a : n.body) {
      os << ' ' << static_cast<int>(a.kind) << ' ' << a.id;
    }
    os << '\n';
  }
  os << "top " << plan.tree.top().size();
  for (const LoopTree::Action& a : plan.tree.top()) {
    os << ' ' << static_cast<int>(a.kind) << ' ' << a.id;
  }
  os << '\n';
  os << "buffers " << plan.tree.buffers().size() << '\n';
  for (const BufferSpec& b : plan.tree.buffers()) {
    os << "buffer " << b.producer << ' ' << b.consumer << ' '
       << b.indices.size();
    for (int id : b.indices) os << ' ' << id;
    for (std::int64_t d : b.dims) os << ' ' << d;
    os << ' ' << b.size << '\n';
  }

  os << "cost " << hex_double(plan.cost.primary) << ' '
     << hex_double(plan.cost.secondary) << ' '
     << hex_double(plan.cost.tertiary) << '\n';
  os << "flops " << hex_double(plan.flops) << '\n';
  os << "bound " << plan.buffer_dim_bound << '\n';
  os << "fingerprint " << hex64(plan.sparsity_fingerprint) << '\n';
  os << "search " << plan.paths_total << ' ' << plan.paths_executable << ' '
     << plan.paths_searched << ' ' << plan.paths_feasible << ' '
     << plan.dp_subproblems << ' ' << plan.dp_evaluations << ' '
     << plan.nodes_expanded << ' ' << hex_double(plan.flops_lower_bound)
     << ' ' << hex_double(plan.optimality_gap) << ' '
     << (plan.budget_exhausted ? 1 : 0) << '\n';
  for (const auto& [k, v] : meta) {
    SPTTN_CHECK_MSG(!k.empty() && k.find_first_of(" \t\n") == std::string::npos &&
                        v.find_first_of(" \t\n") == std::string::npos,
                    "plan meta keys/values must be whitespace-free tokens");
    os << "meta " << k << ' ' << v << '\n';
  }
  os << "end\n";

  std::string payload = os.str();
  payload += "checksum " + hex64(payload_checksum(payload)) + '\n';
  return payload;
}

LoadedPlan deserialize_plan(const std::string& text) {
  // Version header before anything else: a future format may checksum
  // differently, so an artifact from another version must be reported as a
  // version mismatch, not as corruption.
  const std::string header_line = std::string(kHeader) + "\n";
  if (text.compare(0, header_line.size(), header_line) != 0) {
    throw Error(
        "plan deserialize: missing or unsupported version header "
        "(expected '" +
        std::string(kHeader) + "')");
  }
  // Checksum next: split the trailing checksum line off and compare
  // against a recomputation over everything before it, so any bit flip in
  // the payload is caught before field-level parsing begins.
  const std::size_t marker = text.rfind("\nchecksum ");
  if (marker == std::string::npos) {
    throw Error("plan deserialize: missing checksum line");
  }
  const std::string payload = text.substr(0, marker + 1);
  {
    Reader tail(text.substr(marker + 1));
    tail.expect_line("checksum");
    const std::uint64_t stored = tail.read_hex();
    const std::uint64_t computed = payload_checksum(payload);
    if (stored != computed) {
      throw Error("plan deserialize: checksum mismatch (file corrupt): "
                  "stored " + hex64(stored) + ", computed " + hex64(computed));
    }
  }

  Reader r(payload);
  if (!r.next_line() || r.current_line() != kHeader) {
    throw Error("plan deserialize: missing or unsupported version header "
                "(expected '" + std::string(kHeader) + "', got '" +
                r.current_line() + "')");
  }

  LoadedPlan out;
  r.expect_line("expr");
  const std::string expr = r.rest_of_line();
  if (expr.empty()) r.fail("empty kernel expression");
  r.expect_line("sparse");
  const std::string sparse_name = r.token();
  out.kernel = Kernel::parse(expr, sparse_name);

  r.expect_line("indices");
  const auto n_indices = r.read_int(0, IndexSet::kMaxIndex);
  if (n_indices != out.kernel.num_indices()) {
    r.fail("index count " + std::to_string(n_indices) +
           " does not match the parsed kernel's " +
           std::to_string(out.kernel.num_indices()));
  }
  for (int id = 0; id < n_indices; ++id) {
    r.expect_line("index");
    const std::string name = r.token();
    // Ids are assigned by order of appearance in the expression, so a
    // faithful file lists names in exactly the parsed order; drift means
    // the ids inside the path/tree would silently re-bind.
    if (name != out.kernel.index_name(id)) {
      r.fail("index order drift: position " + std::to_string(id) + " is '" +
             name + "' in the file but '" + out.kernel.index_name(id) +
             "' in the parsed kernel");
    }
    out.kernel.set_index_dim(id, r.read_int(1, kMaxCount * kMaxCount));
  }

  Plan& plan = out.plan;
  r.expect_line("terms");
  const auto n_terms = r.read_int(0, kMaxCount);
  plan.path.terms.resize(static_cast<std::size_t>(n_terms));
  for (PathTerm& t : plan.path.terms) {
    r.expect_line("term");
    t.lhs = read_operand(r);
    t.rhs = read_operand(r);
    t.refs = IndexSet(r.read_hex());
    t.out = IndexSet(r.read_hex());
    t.carries_sparse = r.read_int(0, 1) == 1;
    t.sparse_refs = IndexSet(r.read_hex());
  }

  r.expect_line("order");
  const auto n_order = r.read_int(0, kMaxCount);
  plan.order.resize(static_cast<std::size_t>(n_order));
  for (std::vector<int>& term_order : plan.order) {
    r.expect_line("oterm");
    const auto k = r.read_int(0, IndexSet::kMaxIndex);
    term_order.resize(static_cast<std::size_t>(k));
    for (int& id : term_order) {
      id = static_cast<int>(r.read_int(0, IndexSet::kMaxIndex - 1));
    }
  }

  const auto read_action = [&r] {
    LoopTree::Action a;
    a.kind = static_cast<LoopTree::Action::Kind>(r.read_int(0, 2));
    a.id = static_cast<int>(r.read_int(0, kMaxCount));
    return a;
  };
  r.expect_line("nodes");
  const auto n_nodes = r.read_int(0, kMaxCount);
  std::vector<LoopTree::Node> nodes(static_cast<std::size_t>(n_nodes));
  for (LoopTree::Node& n : nodes) {
    r.expect_line("node");
    n.index = static_cast<int>(r.read_int(-1, IndexSet::kMaxIndex - 1));
    n.sparse = r.read_int(0, 1) == 1;
    n.csf_level = static_cast<int>(r.read_int(-1, IndexSet::kMaxIndex - 1));
    n.depth = static_cast<int>(r.read_int(0, kMaxCount));
    const auto n_body = r.read_int(0, kMaxCount);
    n.body.reserve(static_cast<std::size_t>(n_body));
    for (std::int64_t i = 0; i < n_body; ++i) n.body.push_back(read_action());
  }
  r.expect_line("top");
  const auto n_top = r.read_int(0, kMaxCount);
  std::vector<LoopTree::Action> top;
  top.reserve(static_cast<std::size_t>(n_top));
  for (std::int64_t i = 0; i < n_top; ++i) top.push_back(read_action());
  r.expect_line("buffers");
  const auto n_buffers = r.read_int(0, kMaxCount);
  std::vector<BufferSpec> buffers(static_cast<std::size_t>(n_buffers));
  for (BufferSpec& b : buffers) {
    r.expect_line("buffer");
    b.producer = static_cast<int>(r.read_int(-1, kMaxCount));
    b.consumer = static_cast<int>(r.read_int(-1, kMaxCount));
    const auto k = r.read_int(0, IndexSet::kMaxIndex);
    b.indices.resize(static_cast<std::size_t>(k));
    for (int& id : b.indices) {
      id = static_cast<int>(r.read_int(0, IndexSet::kMaxIndex - 1));
    }
    b.dims.resize(static_cast<std::size_t>(k));
    for (std::int64_t& d : b.dims) d = r.read_int(0, kMaxCount * kMaxCount);
    b.size = r.read_int(0, std::numeric_limits<std::int64_t>::max());
  }
  plan.tree =
      LoopTree::assemble(std::move(nodes), std::move(top), std::move(buffers));

  r.expect_line("cost");
  plan.cost.primary = r.read_double_bits();
  plan.cost.secondary = r.read_double_bits();
  plan.cost.tertiary = r.read_double_bits();
  r.expect_line("flops");
  plan.flops = r.read_double_bits();
  r.expect_line("bound");
  plan.buffer_dim_bound = static_cast<int>(r.read_int(0, IndexSet::kMaxIndex));
  r.expect_line("fingerprint");
  plan.sparsity_fingerprint = r.read_hex();
  r.expect_line("search");
  constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
  plan.paths_total = r.read_int(0, kMaxInt64);
  plan.paths_executable = r.read_int(0, kMaxInt64);
  plan.paths_searched = static_cast<int>(r.read_int(0, kMaxCount));
  plan.paths_feasible = static_cast<int>(r.read_int(0, kMaxCount));
  plan.dp_subproblems = r.read_int(0, kMaxInt64);
  plan.dp_evaluations = r.read_int(0, kMaxInt64);
  plan.nodes_expanded = r.read_int(0, kMaxInt64);
  plan.flops_lower_bound = r.read_double_bits();
  plan.optimality_gap = r.read_double_bits();
  plan.budget_exhausted = r.read_int(0, 1) == 1;

  // Meta entries until the end marker.
  while (true) {
    if (!r.next_line()) r.fail("unexpected end of input, expected 'end'");
    if (r.current_line() == "end") break;
    if (r.token() != "meta") {
      r.fail("expected 'meta' or 'end', got '" + r.current_line() + "'");
    }
    if (static_cast<std::int64_t>(out.meta.size()) >= kMaxCount) {
      r.fail("too many meta entries");
    }
    const std::string meta_key = r.token();
    const std::string value = r.tokens_left() ? r.token() : std::string();
    out.meta.emplace_back(meta_key, value);
  }
  return out;
}

}  // namespace spttn
