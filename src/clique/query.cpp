#include "clique/query.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <sstream>

#include "clique/engine.hpp"

namespace c3 {
namespace {

[[noreturn]] void parse_fail(const std::string& message, std::string token) {
  throw QueryParseError("query parse error: " + message, std::move(token));
}

/// Strictly parses a non-negative integer token (digits only — a sign, hex
/// prefix, or trailing junk is a hard error, never a silent different query).
long long parse_uint(const std::string& token, const char* field) {
  if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos) {
    parse_fail(std::string(field) + ": expected a non-negative integer, got '" + token + "'",
               token);
  }
  try {
    return std::stoll(token);
  } catch (const std::exception&) {
    parse_fail(std::string(field) + ": value '" + token + "' out of range", token);
  }
}

double parse_seconds(const std::string& token, const char* field) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != token.size() || !(v >= 0.0) || !std::isfinite(v)) {
    parse_fail(std::string(field) + ": expected non-negative seconds, got '" + token + "'", token);
  }
  return v;
}

/// Applies one `key=value` option token to `opts`; unknown keys and bad
/// values are errors naming the token.
void apply_option(const std::string& token, QueryOptions& opts) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    parse_fail("unexpected token '" + token + "' (options are key=value: workers=, limit=, "
               "budget=, witness=)",
               token);
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (key == "workers") {
    const long long workers = parse_uint(value, "workers");
    if (workers > (1 << 20)) {
      parse_fail("workers: value '" + value + "' out of range", value);
    }
    opts.max_workers = static_cast<int>(workers);
  } else if (key == "limit") {
    opts.result_limit = static_cast<count_t>(parse_uint(value, "limit"));
  } else if (key == "budget") {
    opts.budget_seconds = parse_seconds(value, "budget");
  } else if (key == "witness") {
    if (value != "0" && value != "1") {
      parse_fail("witness: expected 0 or 1 in '" + token + "'", token);
    }
    opts.want_witness = value == "1";
  } else {
    parse_fail("unknown option '" + token + "' (expected workers=, limit=, budget=, witness=)",
               token);
  }
}

/// One definition of "what the parser sees" for a raw input line: everything
/// up to the first '#' (comments run to end of line). parse_query and
/// parse_query_file both go through here, so the two paths cannot diverge on
/// where a comment starts.
std::string_view strip_comment(std::string_view line) noexcept {
  return line.substr(0, line.find('#'));
}

/// True when `line` holds no tokens once its comment is stripped (blank or
/// comment-only — the lines parse_query_file skips).
bool blank_line(std::string_view line) noexcept {
  return strip_comment(line).find_first_not_of(" \t\r\n") == std::string_view::npos;
}

bool takes_k(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::Count:
    case QueryKind::List:
    case QueryKind::HasClique:
    case QueryKind::FindClique:
    case QueryKind::PerVertexCounts:
    case QueryKind::PerEdgeCounts:
      return true;
    case QueryKind::Spectrum:
    case QueryKind::MaxClique:
      return false;
  }
  return false;
}

std::optional<QueryKind> kind_from_name(const std::string& name) noexcept {
  if (name == "count") return QueryKind::Count;
  if (name == "list") return QueryKind::List;
  if (name == "hasclique") return QueryKind::HasClique;
  if (name == "findclique") return QueryKind::FindClique;
  if (name == "vertexcounts") return QueryKind::PerVertexCounts;
  if (name == "edgecounts") return QueryKind::PerEdgeCounts;
  if (name == "spectrum") return QueryKind::Spectrum;
  if (name == "maxclique") return QueryKind::MaxClique;
  return std::nullopt;
}

}  // namespace

const char* query_kind_name(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::Count:
      return "count";
    case QueryKind::List:
      return "list";
    case QueryKind::HasClique:
      return "hasclique";
    case QueryKind::FindClique:
      return "findclique";
    case QueryKind::PerVertexCounts:
      return "vertexcounts";
    case QueryKind::PerEdgeCounts:
      return "edgecounts";
    case QueryKind::Spectrum:
      return "spectrum";
    case QueryKind::MaxClique:
      return "maxclique";
  }
  return "?";
}

Query parse_query(std::string_view line) {
  std::istringstream in{std::string(strip_comment(line))};
  std::string head;
  if (!(in >> head)) parse_fail("empty query line", "");

  const std::optional<QueryKind> kind = kind_from_name(head);
  if (!kind.has_value()) {
    parse_fail("unknown query kind '" + head + "' (expected count, list, hasclique, findclique, "
               "vertexcounts, edgecounts, spectrum, or maxclique)",
               head);
  }
  Query q;
  q.kind = *kind;

  std::string token;
  if (takes_k(q.kind)) {
    if (!(in >> token)) {
      parse_fail(head + ": missing clique size K", "");
    }
    const long long k = parse_uint(token, head.c_str());
    if (k < 1 || k > (1 << 30)) {
      parse_fail(head + ": clique size must be >= 1, got '" + token + "'", token);
    }
    q.k = static_cast<int>(k);
  } else if (q.kind == QueryKind::Spectrum) {
    // Optional KMAX: a bare integer token right after the keyword.
    if (in >> token) {
      if (token.find('=') != std::string::npos) {
        apply_option(token, q.opts);
      } else {
        const long long kmax = parse_uint(token, "spectrum");
        if (kmax > (1 << 30)) {
          parse_fail("spectrum: KMAX '" + token + "' out of range", token);
        }
        q.kmax = static_cast<int>(kmax);
      }
    }
  }
  while (in >> token) apply_option(token, q.opts);
  return q;
}

std::vector<Query> parse_query_file(std::istream& in) {
  std::vector<Query> queries;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (blank_line(line)) continue;
    try {
      queries.push_back(parse_query(line));
    } catch (const QueryParseError& e) {
      throw QueryParseError("line " + std::to_string(line_number) + ": " + e.what(), e.token());
    }
  }
  return queries;
}

std::string format_query(const Query& q) {
  std::string out = query_kind_name(q.kind);
  if (takes_k(q.kind)) {
    out += ' ' + std::to_string(q.k);
  } else if (q.kind == QueryKind::Spectrum && q.kmax != 0) {
    out += ' ' + std::to_string(q.kmax);
  }
  const QueryOptions defaults;
  if (q.opts.max_workers != defaults.max_workers) {
    out += " workers=" + std::to_string(q.opts.max_workers);
  }
  if (q.opts.result_limit != defaults.result_limit) {
    out += " limit=" + std::to_string(q.opts.result_limit);
  }
  if (q.opts.budget_seconds != defaults.budget_seconds) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", q.opts.budget_seconds);
    out += " budget=";
    out += buf;
  }
  if (q.opts.want_witness != defaults.want_witness) {
    out += " witness=";
    out += q.opts.want_witness ? '1' : '0';
  }
  return out;
}

std::string format_answer(const Answer& a) {
  std::string out = query_kind_name(a.kind);
  if (takes_k(a.kind)) out += ' ' + std::to_string(a.k);
  out += ':';
  switch (a.kind) {
    case QueryKind::Count:
      out += ' ' + std::to_string(a.count) + " cliques";
      break;
    case QueryKind::List:
      out += ' ' + std::to_string(a.cliques.size()) + " cliques";
      break;
    case QueryKind::HasClique:
      out += a.found ? " yes" : " no";
      break;
    case QueryKind::FindClique:
      if (!a.found) {
        out += " none";
      } else if (a.witness.empty()) {
        out += " yes";
      } else {
        for (const node_t v : a.witness) out += ' ' + std::to_string(v);
      }
      break;
    case QueryKind::PerVertexCounts:
    case QueryKind::PerEdgeCounts: {
      count_t nonzero = 0;
      for (const count_t c : a.per_counts) nonzero += c > 0 ? 1 : 0;
      out += ' ' + std::to_string(a.per_counts.size()) + " entries, " + std::to_string(nonzero) +
             " nonzero";
      break;
    }
    case QueryKind::Spectrum: {
      out += " omega " + std::to_string(a.spectrum.omega) + ", counts";
      for (const count_t c : a.spectrum.counts) out += ' ' + std::to_string(c);
      break;
    }
    case QueryKind::MaxClique:
      out += " omega " + std::to_string(a.omega);
      if (!a.witness.empty()) {
        out += ", witness";
        for (const node_t v : a.witness) out += ' ' + std::to_string(v);
      }
      break;
  }
  if (a.truncated) out += " [truncated]";
  return out;
}

bool query_needs_artifacts(const Query& q) noexcept {
  switch (q.kind) {
    case QueryKind::Count:
    case QueryKind::List:
    case QueryKind::HasClique:
    case QueryKind::FindClique:
    case QueryKind::PerVertexCounts:
    case QueryKind::PerEdgeCounts:
      return q.k > 2;
    case QueryKind::Spectrum:
      return q.kmax <= 0 || q.kmax > 2;
    case QueryKind::MaxClique:
      return true;
  }
  return true;
}

namespace {

constexpr double kPerVertexCostFactor = 1.5;
constexpr double kPerEdgeCostFactor = 2.5;
constexpr int kSpectrumPassK = 6;

/// Elementary-steps estimate for one exhaustive k-count: every edge spawns a
/// search whose branching is ~half the candidate-set bound per two levels.
/// O(1): the level loop is capped (beyond any real clique number the
/// estimate is flat — parse_query accepts k up to 2^30, and branch == 1
/// would otherwise never reach the cost cap).
double count_cost(double n, double m, double branch, int k) noexcept {
  if (k <= 0) return 1.0;
  if (k == 1) return std::max(1.0, n);
  double c = std::max(1.0, m);
  if (branch <= 1.0) return c;
  const int levels = std::min(k, 64);
  for (int level = 3; level <= levels; ++level) {
    c *= branch;
    if (c >= kCostCap) return kCostCap;
  }
  return c;
}

}  // namespace

double estimate_query_cost(const PreparedGraph& engine, const Query& q) noexcept {
  const Graph& g = engine.graph();
  const double n = static_cast<double>(g.num_nodes());
  const double m = static_cast<double>(g.num_edges());

  // Candidate-set bound from whatever is already built (never forces a
  // build); the engine caches the underlying scan per artifact state, so
  // this is a couple of atomic loads per estimate.
  const double bound = engine.cost_bound();
  const double branch = std::max(1.0, bound / 2.0);
  // Clique-number proxy for the open-ended kinds, clamped so cost loops stay
  // short.
  const int ub = static_cast<int>(std::clamp(bound + 2.0, 3.0, 64.0));

  switch (q.kind) {
    case QueryKind::Count:
      return count_cost(n, m, branch, q.k);
    case QueryKind::List: {
      double c = 2.0 * count_cost(n, m, branch, q.k);  // enumerate + materialize
      if (q.opts.result_limit > 0) {
        // Early-stopped listings touch at most ~limit emission paths.
        c = std::min(c, m + static_cast<double>(q.opts.result_limit) * branch *
                              static_cast<double>(std::max(1, q.k)));
      }
      return std::min(c, kCostCap);
    }
    case QueryKind::HasClique:
    case QueryKind::FindClique:
      // Decision probes stop at the first witness; most graphs that contain
      // a k-clique yield one long before the full enumeration finishes.
      return std::max(m, count_cost(n, m, branch, q.k) / 8.0);
    // The aggregation kinds run the counting search with closed-form leaf
    // tallies; on the paper-scale stand-ins they measure 1.0-1.7x (per
    // vertex) and 1.1-2.8x (per edge) a count of the same k.
    case QueryKind::PerVertexCounts:
      return std::min(kCostCap, kPerVertexCostFactor * count_cost(n, m, branch, q.k));
    case QueryKind::PerEdgeCounts:
      return std::min(kCostCap, kPerEdgeCostFactor * count_cost(n, m, branch, q.k));
    // A spectrum is one pivot pass over the DAG (clique/pivot.cpp), not a
    // search per k. On the perfbench stand-ins the full pass measured
    // 0.007-0.020 s, below c3List's own `count 8` (0.015-0.088 s), so it is
    // priced as one count of min(kmax, kSpectrumPassK).
    case QueryKind::Spectrum: {
      const int limit = q.kmax > 0 ? std::min(q.kmax, ub) : ub;
      return std::min(kCostCap, n + m + count_cost(n, m, branch, std::min(limit, kSpectrumPassK)));
    }
    case QueryKind::MaxClique: {
      // ~log2(ub) decision probes, the expensive ones near the clique number.
      const double probes = std::ceil(std::log2(std::max(2, ub))) + 1.0;
      return std::min(kCostCap, probes * std::max(m, count_cost(n, m, branch, ub) / 8.0));
    }
  }
  return kCostCap;
}

bool operator==(const QueryOptions& a, const QueryOptions& b) noexcept {
  // The cancel token is execution state, not part of the question — and it
  // has no text form, so comparing it would break the format/parse
  // round-trip for any query carrying one.
  return a.max_workers == b.max_workers && a.budget_seconds == b.budget_seconds &&
         a.result_limit == b.result_limit && a.want_witness == b.want_witness;
}

bool operator==(const Query& a, const Query& b) noexcept {
  return a.kind == b.kind && a.k == b.k && a.kmax == b.kmax && a.opts == b.opts;
}

Query canonical_question(const Query& q) {
  Query canon = q;
  canon.opts.max_workers = 0;
  canon.opts.budget_seconds = 0.0;
  canon.opts.cancel.reset();
  return canon;
}

bool same_question(const Query& a, const Query& b) noexcept {
  return a.kind == b.kind && a.k == b.k && a.kmax == b.kmax &&
         a.opts.result_limit == b.opts.result_limit &&
         a.opts.want_witness == b.opts.want_witness;
}

}  // namespace c3
