// bench_diff: compare a freshly produced bench JSON against a checked-in
// BENCH_*.json baseline — the "diff bench results across PRs" tool.
//
// Three gates, all reflected in the exit code:
//  - schema: the fresh file must parse, carry the same "bench" id, and
//    keep its bench-specific legacy fields: bench_fig8_scaling rows
//    (ranks/max_local_s/comm_s/total_s/speedup/imbalance),
//    bench_search rows (search-space columns plus the unbudgeted-vs-
//    budgeted rows with cost_ratio/gap/plan seconds), bench_serve rows
//    (per-kernel request counts and latency percentiles), and
//    bench_kernels rows (kernel/nnz identity plus lowered_s and
//    specialized_s). Schema extensions stay backward-compatible and silent
//    field drops fail CI.
//  - regression: matching rows (identity = the string/rank-like fields on
//    the path to the metric) whose seconds-valued metrics got slower than
//    baseline * --max-regress (and by more than --min-delta absolute) are
//    regressions. Only seconds-like fields ("*_s", "*seconds*", p50/p99/
//    max latencies) are thresholded; counts/bytes/speedups are identity
//    and informational.
//  - plan quality: bench_search's budgeted rows fail when cost_ratio or
//    gap exceeds the baseline's. Both are deterministic (node budgets,
//    fixed seeds), so the only slack is 1e-9 and --max-regress does not
//    apply. They are deterministic for one tensor only, so two bench_search
//    files whose top-level n, rank or seed differ are refused outright.
//
// Comparison runs over the identity intersection (a smoke run with fewer
// ranks than the checked-in sweep compares only the shared rows — the tool
// requires the intersection to be non-empty so a renamed key cannot
// silently compare nothing).
//
//   tools/bench_diff --new smoke_fig8.json --baseline BENCH_fig8.json
//       [--max-regress 2.0] [--min-delta 1e-4] [--schema-only]
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using spttn::Error;
using spttn::strfmt;

// ----------------------------------------------------- minimal JSON value

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> items;
  // Insertion-ordered object members (bench writers emit stable order).
  std::vector<std::pair<std::string, Json>> members;

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw Error("JSON parse error at line " + std::to_string(line) + ": " +
                why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.str = string();
        return v;
      }
      case 't': literal("true"); return make_bool(true);
      case 'f': literal("false"); return make_bool(false);
      case 'n': literal("null"); return Json{};
      default: return number();
    }
  }

  static Json make_bool(bool b) {
    Json v;
    v.kind = Json::Kind::kBool;
    v.b = b;
    return v;
  }

  void literal(const char* lit) {
    skip_ws();
    for (const char* c = lit; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *c) {
        fail(std::string("bad literal, expected ") + lit);
      }
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          // Bench identities are ASCII; keep non-ASCII escapes opaque.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          pos_ += 4;
          out.push_back('?');
          break;
        default: fail("unknown escape");
      }
    }
  }

  Json number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json v;
    v.kind = Json::Kind::kNumber;
    try {
      v.num = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number '" + text_.substr(start, pos_ - start) + "'");
    }
    return v;
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = string();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

Json parse_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return JsonParser(ss.str()).parse();
}

// ------------------------------------------------------------- flattening

/// Fields that identify a row rather than measure it: every string field
/// and the rank-like counts.
bool is_identity_field(const std::string& key, const Json& v) {
  if (v.kind == Json::Kind::kString) return true;
  return key == "ranks" || key == "threads" || key == "clients" ||
         key == "reps" || key == "nnz";
}

/// Seconds-valued metrics get the regression threshold; everything else is
/// informational.
bool is_seconds_metric(const std::string& key) {
  if (key.size() > 2 && key.compare(key.size() - 2, 2, "_s") == 0) {
    return true;
  }
  return key.find("seconds") != std::string::npos ||
         key.find("latency") != std::string::npos || key == "p50" ||
         key == "p99" || key == "max" || key == "secs";
}

/// bench_search's budgeted plan-quality metrics: lower is better, and any
/// increase past float noise is a regression.
bool is_quality_metric(const std::string& bench, const std::string& key) {
  return bench == "bench_search" && (key == "cost_ratio" || key == "gap");
}
constexpr double kQualitySlack = 1e-9;

/// identity -> (metric name -> value). Identity is the ordered
/// concatenation of identity fields along the path from the root.
using Metrics = std::map<std::string, std::map<std::string, double>>;

void flatten(const Json& v, const std::string& identity, Metrics* out) {
  if (v.kind == Json::Kind::kArray) {
    for (const Json& item : v.items) flatten(item, identity, out);
    return;
  }
  if (v.kind != Json::Kind::kObject) return;
  std::string id = identity;
  for (const auto& [key, member] : v.members) {
    if (!is_identity_field(key, member)) continue;
    id += "/" + key + "=" +
          (member.kind == Json::Kind::kString
               ? member.str
               : strfmt("%lld", static_cast<long long>(member.num)));
  }
  for (const auto& [key, member] : v.members) {
    if (member.kind == Json::Kind::kNumber &&
        !is_identity_field(key, member)) {
      (*out)[id][key] = member.num;
    }
    if (member.kind == Json::Kind::kArray ||
        member.kind == Json::Kind::kObject) {
      flatten(member, id, out);
    }
  }
}

// ----------------------------------------------------------- schema gate

void check_fig8_schema(const Json& doc, const std::string& path) {
  const Json* figures = doc.find("figures");
  if (figures == nullptr || figures->kind != Json::Kind::kArray) {
    throw Error(path + ": bench_fig8_scaling document has no figures array");
  }
  const char* legacy[] = {"ranks",   "max_local_s", "comm_s",
                          "total_s", "speedup",     "imbalance"};
  for (const Json& fig : figures->items) {
    if (fig.find("figure") == nullptr || fig.find("kernel") == nullptr) {
      throw Error(path + ": figure entry missing figure/kernel id");
    }
    const Json* rows = fig.find("rows");
    if (rows == nullptr || rows->kind != Json::Kind::kArray) {
      throw Error(path + ": figure entry has no rows array");
    }
    for (const Json& row : rows->items) {
      for (const char* field : legacy) {
        if (row.find(field) == nullptr) {
          throw Error(path + ": row dropped legacy field '" + field +
                      "' — schema must stay backward-compatible");
        }
      }
    }
  }
}

void check_search_schema(const Json& doc, const std::string& path) {
  const Json* mode = doc.find("mode");
  if (mode == nullptr || mode->kind != Json::Kind::kString) {
    throw Error(path + ": bench_search document has no mode field");
  }
  if (mode->str == "cache") {
    const Json* families = doc.find("families");
    if (families == nullptr || families->kind != Json::Kind::kArray) {
      throw Error(path + ": bench_search cache document has no families");
    }
    return;
  }
  const Json* kernels = doc.find("kernels");
  if (kernels == nullptr || kernels->kind != Json::Kind::kArray ||
      kernels->items.empty()) {
    throw Error(path + ": bench_search document has no kernels rows");
  }
  const char* legacy[] = {"paths", "exec_paths",     "orders_csf",
                          "dp_ms", "dp_subproblems", "enum_ms"};
  for (const Json& row : kernels->items) {
    for (const char* field : legacy) {
      if (row.find(field) == nullptr) {
        throw Error(path + ": kernels row dropped legacy field '" +
                    std::string(field) + "'");
      }
    }
  }
  // Budget-comparison rows: every row must carry the full unbudgeted-vs-
  // budgeted column set so the quality signal (cost_ratio, gap) cannot be
  // silently dropped while the timing columns keep the diff green.
  const Json* budgeted = doc.find("budgeted");
  if (budgeted == nullptr || budgeted->kind != Json::Kind::kArray ||
      budgeted->items.empty()) {
    throw Error(path + ": bench_search document has no budgeted rows");
  }
  const char* budget_fields[] = {"cost_ratio", "nodes_expanded", "gap",
                                 "unbudgeted_plan_s", "budgeted_plan_s"};
  for (const Json& row : budgeted->items) {
    if (row.find("kernel") == nullptr || row.find("budget") == nullptr) {
      throw Error(path + ": budgeted row missing kernel/budget identity");
    }
    for (const char* field : budget_fields) {
      if (row.find(field) == nullptr) {
        throw Error(path + ": budgeted row dropped field '" +
                    std::string(field) + "'");
      }
    }
  }
}

void check_serve_schema(const Json& doc, const std::string& path) {
  if (doc.find("throughput_rps") == nullptr) {
    throw Error(path + ": bench_serve document has no throughput_rps");
  }
  const Json* kernels = doc.find("kernels");
  if (kernels == nullptr || kernels->kind != Json::Kind::kArray ||
      kernels->items.empty()) {
    throw Error(path + ": bench_serve document has no kernels rows");
  }
  const char* legacy[] = {"requests", "p50_us", "p99_us", "max_us"};
  for (const Json& row : kernels->items) {
    if (row.find("kernel") == nullptr) {
      throw Error(path + ": serve row missing kernel identity");
    }
    for (const char* field : legacy) {
      if (row.find(field) == nullptr) {
        throw Error(path + ": serve row dropped legacy field '" +
                    std::string(field) + "'");
      }
    }
  }
}

void check_kernels_schema(const Json& doc, const std::string& path) {
  const Json* kernels = doc.find("kernels");
  if (kernels == nullptr || kernels->kind != Json::Kind::kArray ||
      kernels->items.empty()) {
    throw Error(path + ": bench_kernels document has no kernels rows");
  }
  const char* required[] = {"kernel", "nnz", "lowered_s", "specialized_s"};
  for (const Json& row : kernels->items) {
    for (const char* field : required) {
      if (row.find(field) == nullptr) {
        throw Error(path + ": kernels row dropped field '" +
                    std::string(field) + "'");
      }
    }
  }
}

/// bench_search's plan-quality gate has no slack, so it may only compare
/// searches over one generated tensor: the top-level n, rank and seed must
/// equal the baseline's (a field missing from both is equal).
void check_search_tensor(const Json& fresh, const Json& base) {
  for (const char* key : {"n", "rank", "seed"}) {
    const auto text = [&](const Json& doc) {
      const Json* v = doc.find(key);
      if (v == nullptr) return std::string("missing");
      return v->kind == Json::Kind::kNumber ? strfmt("%.17g", v->num)
                                            : std::string("not a number");
    };
    if (text(fresh) != text(base)) {
      throw Error(strfmt("bench_search '%s' differs: new %s, baseline %s; "
                         "cost_ratio and gap compare only runs on one tensor",
                         key, text(fresh).c_str(), text(base).c_str()));
    }
  }
}

std::string bench_id(const Json& doc, const std::string& path) {
  const Json* bench = doc.find("bench");
  if (bench == nullptr || bench->kind != Json::Kind::kString) {
    throw Error(path + ": top-level \"bench\" id missing");
  }
  return bench->str;
}

}  // namespace

int main(int argc, char** argv) {
  spttn::Cli cli("bench_diff");
  const std::string* fresh_path =
      cli.add_string("new", "", "freshly produced bench JSON");
  const std::string* base_path =
      cli.add_string("baseline", "", "checked-in BENCH_*.json to diff against");
  const auto* max_regress = cli.add_double(
      "max-regress", 2.0,
      "fail when a seconds metric exceeds baseline * this factor");
  const auto* min_delta = cli.add_double(
      "min-delta", 1e-4,
      "ignore regressions smaller than this many absolute seconds");
  const auto* schema_only = cli.add_bool(
      "schema-only", false, "validate schema + row matching, skip thresholds");

  try {
    cli.parse(argc, argv);
    if (fresh_path->empty() || base_path->empty()) {
      std::cerr << cli.usage();
      return 2;
    }
    const Json fresh = parse_file(*fresh_path);
    const Json base = parse_file(*base_path);

    const std::string id = bench_id(fresh, *fresh_path);
    const std::string base_id = bench_id(base, *base_path);
    if (id != base_id) {
      throw Error("bench id mismatch: new is '" + id + "', baseline is '" +
                  base_id + "'");
    }
    if (id == "bench_fig8_scaling") {
      check_fig8_schema(fresh, *fresh_path);
      check_fig8_schema(base, *base_path);
    } else if (id == "bench_search") {
      check_search_schema(fresh, *fresh_path);
      check_search_schema(base, *base_path);
      check_search_tensor(fresh, base);
    } else if (id == "bench_serve") {
      check_serve_schema(fresh, *fresh_path);
      check_serve_schema(base, *base_path);
    } else if (id == "bench_kernels") {
      check_kernels_schema(fresh, *fresh_path);
      check_kernels_schema(base, *base_path);
    }

    Metrics fresh_rows;
    Metrics base_rows;
    flatten(fresh, "", &fresh_rows);
    flatten(base, "", &base_rows);

    int compared = 0;
    int regressions = 0;
    for (const auto& [row_id, base_metrics] : base_rows) {
      const auto it = fresh_rows.find(row_id);
      if (it == fresh_rows.end()) continue;  // smoke subset of the sweep
      for (const auto& [metric, base_val] : base_metrics) {
        const auto mit = it->second.find(metric);
        if (mit == it->second.end()) continue;
        ++compared;
        if (*schema_only) continue;
        const double fresh_val = mit->second;
        if (is_quality_metric(id, metric)) {
          if (fresh_val > base_val + kQualitySlack) {
            ++regressions;
            std::cout << strfmt("REGRESSION %s %s: %.6f -> %.6f (plan "
                                "quality; deterministic, no slack)\n",
                                row_id.c_str(), metric.c_str(), base_val,
                                fresh_val);
          }
          continue;
        }
        if (!is_seconds_metric(metric)) continue;
        if (fresh_val > base_val * *max_regress &&
            fresh_val - base_val > *min_delta) {
          ++regressions;
          std::cout << strfmt("REGRESSION %s %s: %.6f -> %.6f (%.2fx > "
                              "%.2fx budget)\n",
                              row_id.c_str(), metric.c_str(), base_val,
                              fresh_val, fresh_val / base_val,
                              *max_regress);
        }
      }
    }
    if (compared == 0) {
      throw Error("no comparable metrics between " + *fresh_path + " and " +
                  *base_path + " — row identities diverged");
    }
    std::cout << "bench_diff: " << id << ": " << compared
              << " metrics compared, " << regressions << " regression(s)"
              << (*schema_only ? " (schema-only)" : "") << "\n";
    return regressions == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << e.what() << "\n";
    return 2;
  }
}
