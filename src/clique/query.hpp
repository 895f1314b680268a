// The typed query surface: one Query/Answer pair covering every question the
// engine can answer.
//
// A Query is a small value (kind + k/kmax + per-query options) that
// round-trips through text, an Answer is the typed result, and
// PreparedGraph::run(const Query&) is the single execution entry every other
// surface wraps. PreparedGraph's named methods are thin wrappers over run();
// CliqueService, the TCP server and c3tool's query files all route Queries
// and return Answers.
//
// Per-query resource control lives in QueryOptions:
//   * max_workers       — caps the query's internal parallelism without
//                         touching the process-global worker cap
//                         (parallel.hpp WorkerCapScope);
//   * budget_seconds /  — early termination through the search's own stop
//     cancel               source (stop.hpp), counting and listing alike: a
//                          cut-short Answer has `truncated` set;
//   * result_limit      — List stops after this many materialized cliques;
//   * want_witness      — MaxClique/FindClique skip materializing a witness.
//
// Text form (one query per line; '#' starts a comment):
//   count K | list K | hasclique K | findclique K | vertexcounts K |
//   edgecounts K | spectrum [KMAX] | maxclique
// followed by zero or more options: workers=N, limit=N, budget=SECONDS,
// witness=0|1. parse_query rejects malformed input with a QueryParseError
// naming the offending token; format_query/format_answer produce the
// canonical text, so query files and server protocols share one grammar.
#pragma once

#include <atomic>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "clique/common.hpp"
#include "clique/spectrum.hpp"
#include "graph/types.hpp"

namespace c3 {

class PreparedGraph;

/// Every question the engine answers, as one sum type.
enum class QueryKind {
  Count,            ///< number of k-cliques
  List,             ///< the k-cliques themselves (bounded by result_limit)
  HasClique,        ///< does a k-clique exist?
  FindClique,       ///< some k-clique, if any
  PerVertexCounts,  ///< k-clique count per vertex
  PerEdgeCounts,    ///< k-clique count per edge
  Spectrum,         ///< counts for every k up to kmax (0 = clique number)
  MaxClique,        ///< a maximum clique and its size
};

/// Per-query resource control. Default-constructed options run the query
/// exactly like the engine's named methods: full worker pool, no deadline,
/// unbounded results.
struct QueryOptions {
  /// Caps this query's internal parallelism (0 = the full pool). Applied as
  /// a per-thread WorkerCapScope, so concurrent queries with different caps
  /// never race on the global worker count.
  int max_workers = 0;
  /// Wall-clock budget in seconds (0 = none). An expired query returns what
  /// it found so far with Answer::truncated set. The clock is read as each
  /// search begins and then every StopSource::kLimitStride polls per worker
  /// (polls are at every top-level task, recursion entry, and emission), so
  /// a search stops within one poll stride of the deadline whether or not it
  /// emits anything. Trivial sizes (k <= 2) are answered without a search
  /// and never cut.
  double budget_seconds = 0.0;
  /// List only: stop after this many cliques (0 = all). The answer is
  /// marked truncated only when a clique beyond the limit actually exists —
  /// a graph with exactly this many k-cliques lists completely.
  count_t result_limit = 0;
  /// MaxClique / FindClique: materialize the witness clique. Turned off,
  /// MaxClique reports only omega (what max_clique_size() needs) and
  /// FindClique degenerates to HasClique.
  bool want_witness = true;
  /// External stop token (not representable in text), read like the budget
  /// clock: a store of `true` ends the search within one poll stride per
  /// worker and the answer returns truncated.
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// One typed query. `k` parameterizes the per-k kinds; `kmax` bounds a
/// Spectrum (0 = up to the clique number). Unused fields are ignored.
struct Query {
  QueryKind kind = QueryKind::Count;
  int k = 0;
  int kmax = 0;
  QueryOptions opts;
};

/// One query's typed outcome. Which fields are meaningful depends on `kind`:
///   Count           -> count + stats
///   List            -> cliques + count (== cliques.size()) + stats
///   HasClique       -> found
///   FindClique      -> found + witness
///   PerVertexCounts / PerEdgeCounts -> per_counts + stats
///   Spectrum        -> spectrum + omega
///   MaxClique       -> omega + witness + found
/// `truncated` marks an answer cut short by result_limit, budget_seconds, or
/// the cancel token (its payload is a valid partial result). `seconds` is
/// the query's wall time inside run().
struct Answer {
  QueryKind kind = QueryKind::Count;
  int k = 0;
  count_t count = 0;
  bool found = false;
  bool truncated = false;
  std::vector<node_t> witness;
  std::vector<std::vector<node_t>> cliques;
  std::vector<count_t> per_counts;
  CliqueSpectrum spectrum;
  node_t omega = 0;
  CliqueStats stats;
  double seconds = 0.0;
};

/// Parse failure: `token()` is the offending token (possibly empty for a
/// missing argument), `what()` the full message naming it.
class QueryParseError : public std::invalid_argument {
 public:
  QueryParseError(const std::string& message, std::string token)
      : std::invalid_argument(message), token_(std::move(token)) {}
  [[nodiscard]] const std::string& token() const noexcept { return token_; }

 private:
  std::string token_;
};

/// Parses one query line (grammar above; '#' comments stripped). Throws
/// QueryParseError on malformed input. The line must contain a query —
/// blank/comment-only lines are an error; use parse_query_file for files.
[[nodiscard]] Query parse_query(std::string_view line);

/// Parses a whole query file: one query per line, blank and comment-only
/// lines skipped. A QueryParseError from a bad line is rethrown with the
/// 1-based line number prepended to the message.
[[nodiscard]] std::vector<Query> parse_query_file(std::istream& in);

/// Canonical text of `q` — the parse_query round-trip partner. Options at
/// their defaults are omitted; the cancel token has no text form.
[[nodiscard]] std::string format_query(const Query& q);

/// One-line human/machine-readable rendering of an answer (the text a
/// line-oriented server or c3tool batch emits per query).
[[nodiscard]] std::string format_answer(const Answer& a);

/// Human-readable query-kind name (tool/bench output; also the grammar's
/// keyword for that kind).
[[nodiscard]] const char* query_kind_name(QueryKind kind) noexcept;

/// Work estimate for scheduling, in arbitrary units comparable across the
/// queries of one engine: roughly the number of elementary search steps the
/// query will perform, derived from k and the engine's *already built*
/// artifacts (max out-degree of the oriented DAG, largest community). Never
/// triggers preparation — before the artifacts exist it falls back to
/// graph-shape proxies, so estimates are cheap enough to run per query.
/// Saturates at kCostCap.
[[nodiscard]] double estimate_query_cost(const PreparedGraph& engine, const Query& q) noexcept;

/// The largest price estimate_query_cost returns.
inline constexpr double kCostCap = 1e18;

/// Field-wise equality over the text-representable fields. The cancel token
/// is deliberately *excluded*: it has no text form and identifies an
/// execution, not a question — comparing it by identity made two textually
/// identical queries unequal, breaking answer-cache keying. The
/// round-trip parse_query(format_query(q)) == q holds for every q, cancel
/// token or not.
[[nodiscard]] bool operator==(const QueryOptions& a, const QueryOptions& b) noexcept;
[[nodiscard]] bool operator==(const Query& a, const Query& b) noexcept;

/// `q` with the execution-only controls reset to defaults — the worker cap,
/// the wall-clock budget, the cancel token — leaving only the question being
/// asked (kind, k/kmax, and the result-shaping options limit/witness, which
/// change the answer's content). Two queries with equal canonical questions
/// ask for the same answer; format_query of the canonical question is the
/// text an answer cache keys on.
[[nodiscard]] Query canonical_question(const Query& q);

/// True when `a` and `b` ask for the same answer: canonical_question
/// equality, i.e. execution-only controls ignored, result-shaping options
/// compared.
[[nodiscard]] bool same_question(const Query& a, const Query& b) noexcept;

}  // namespace c3
