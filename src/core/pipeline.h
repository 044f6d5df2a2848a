// Stage-based pipeline architecture for the SODA translation (Figure 4).
//
// The paper's five steps are modeled as an ordered list of PipelineStage
// objects operating on one QueryContext:
//
//   LookupStage   (query level)      parse + Step 1 - lookup; one index
//                                    lookup per word combination tried
//   RankStage     (query level)      Step 2 - rank and top N while
//                                    enumerating the product; one
//                                    InterpretationState per survivor
//   TablesStage   (per interpretation)  Step 3 - tables and joins
//   FiltersStage  (per interpretation)  Step 4 - filters
//   SqlStage      (per interpretation)  Step 5 - SQL generation
//
// Query-level stages run exactly once and may touch the whole context.
// Per-interpretation stages only read the shared context and mutate the
// single InterpretationState they are handed — that contract is what lets
// the SodaEngine snapshot a session's states between stages while the
// serial driver (Soda::Search) stays a thin loop over the same stage list.
// Both time every stage run through one StageScope.
// Results are merged deterministically in ranked order and deduplicated
// with SameStatement, so the outcome is byte-identical at any thread count.
//
// The Step-1 LookupOutput owns a query's candidates; an interpretation
// keeps its choice vector and a few id-only entry points. Names are
// rendered only into the emitted statement (SqlStage) and, for the kept
// results alone, the Explanation (FinalizeOutput).

#ifndef SODA_CORE_PIPELINE_H_
#define SODA_CORE_PIPELINE_H_

#include <chrono>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/config.h"
#include "core/filters_step.h"
#include "core/input_query.h"
#include "core/lookup.h"
#include "core/sql_generator.h"
#include "core/tables_step.h"
#include "sql/ast.h"
#include "sql/result_set.h"

namespace soda {

/// Milliseconds elapsed since `start` — the timing primitive shared by
/// the pipeline drivers.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

/// Canonical, stable identifier of one entry point, used by term bindings
/// (SessionConstraints) and explanation keys: metadata hits render as
/// "label@layer#node", base-data hits as "table.column=value".
/// Deterministic across engines over one graph — node ids derive from
/// the immutable metadata graph.
std::string EntryPointKey(const EntryPoint& ep);

/// One matched term of an interpretation: the query phrase and the entry
/// point the interpretation chose for it.
struct ExplanationTerm {
  std::string phrase;     // as segmented by Step 1 (folded)
  EntryPoint entry;       // the chosen candidate
  std::string entry_key;  // EntryPointKey(entry) — a valid BindTerm target
};

/// Typed provenance of one ranked answer: matched terms → chosen entry
/// points (named by FinalizeOutput for the kept results only) → final
/// FROM tables, join path edges and generated filters as actually
/// emitted (SqlStage, after sibling pruning). The
/// legacy one-line explanation string is rendered from this record, so
/// the two can never drift apart.
struct Explanation {
  std::vector<ExplanationTerm> terms;
  std::vector<std::string> tables;       // the statement's FROM list, in order
  std::vector<JoinEdge> joins;           // join conditions the generator used
  std::vector<GeneratedFilter> filters;  // generated predicates

  /// The classic provenance line, e.g.
  /// "customers @ domain ontology; zürich @ base data" — byte-identical
  /// to the free-text explanation earlier versions carried.
  std::string Render() const;
};

/// One ranked candidate: an executable SQL statement with provenance.
/// The provenance's entry points borrow from the Database and the
/// MetadataGraph the Soda was built over, which must outlive the result.
struct SodaResult {
  SelectStatement statement;
  std::string sql;          // rendered statement
  double score = 0.0;       // ranking score of the interpretation
  std::string explanation;  // provenance.Render(), kept for display/logs
  Explanation provenance;   // the structured record the line is rendered from
  bool fully_connected = true;
  /// Result snippet (up to config.snippet_rows rows) when execution is on.
  ResultSet snippet;
  bool executed = false;
  Status execution_status;
};

/// User-issued constraints on a translation, the session layer's levers
/// (core/session.h). Semantics:
///
///   * PinTable(t)  — every emitted statement must read `t`; during
///     sibling pruning a pinned table counts as constrained, so pinning
///     an inheritance child keeps it in the FROM list.
///   * BanTable(t)  — no emitted statement may read `t`.
///   * Bind(term, entry_key) — interpretations whose choice for `term`
///     is not the candidate with `entry_key` are discarded BEFORE the
///     top-N cut, so binding to a low-ranked entry point surfaces
///     interpretations the unconstrained ranking would have dropped. A
///     binding whose term (or key) matches nothing is inert.
///
/// Tables are stored folded; all three lists are kept sorted + unique by
/// the mutators, which makes BindingsFingerprint() canonical — build
/// instances through the mutators, not aggregate initialization.
struct SessionConstraints {
  struct TermBinding {
    std::string term;       // folded phrase, as in LookupTerm::phrase
    std::string entry_key;  // EntryPointKey of the required candidate
  };

  std::vector<std::string> pinned_tables;
  std::vector<std::string> banned_tables;
  std::vector<TermBinding> bindings;  // sorted by term, one per term

  void PinTable(const std::string& table);
  void UnpinTable(const std::string& table);
  void BanTable(const std::string& table);
  void UnbanTable(const std::string& table);
  void Bind(const std::string& term, const std::string& entry_key);
  void Unbind(const std::string& term);

  bool empty() const {
    return pinned_tables.empty() && banned_tables.empty() && bindings.empty();
  }

  /// Fingerprint of the bindings alone — the part that affects Steps 2-4.
  /// Pin/ban only gate Step 5, which is what lets a session reuse its
  /// post-Filters states across pin/ban changes.
  std::string BindingsFingerprint() const;
};

/// Per-step wall-clock timings in milliseconds (paper Section 5.2.2
/// splits end-to-end time into lookup, rank, tables, SQL and grouping).
/// Under the concurrent engine the per-interpretation entries are summed
/// CPU time across workers; `wall_ms` carries the elapsed time. Every
/// stage slot is written by StageScope, from the same clock readings as
/// the stage's span and histogram sample.
struct StepTimings {
  double lookup_ms = 0.0;
  double rank_ms = 0.0;
  double tables_ms = 0.0;
  double filters_ms = 0.0;
  double sql_ms = 0.0;
  double execute_ms = 0.0;
  double wall_ms = 0.0;

  double soda_total_ms() const {
    return lookup_ms + rank_ms + tables_ms + filters_ms + sql_ms;
  }
};

/// Where one stage's latency is recorded: the span name, the histogram
/// name and the StepTimings slot. The names are literals, so timing an
/// untraced stage run builds no strings.
struct StageTiming {
  std::string_view name;       // "lookup"
  std::string_view span;       // "stage.lookup"
  std::string_view histogram;  // "stage.lookup.ms"
  double StepTimings::*slot;
};

inline constexpr StageTiming kLookupTiming{
    "lookup", "stage.lookup", "stage.lookup.ms", &StepTimings::lookup_ms};
inline constexpr StageTiming kRankTiming{
    "rank", "stage.rank", "stage.rank.ms", &StepTimings::rank_ms};
inline constexpr StageTiming kTablesTiming{
    "tables", "stage.tables", "stage.tables.ms", &StepTimings::tables_ms};
inline constexpr StageTiming kFiltersTiming{
    "filters", "stage.filters", "stage.filters.ms", &StepTimings::filters_ms};
inline constexpr StageTiming kSqlTiming{
    "sql", "stage.sql", "stage.sql.ms", &StepTimings::sql_ms};
/// Snippet execution: not a PipelineStage, timed like one by the drivers.
inline constexpr StageTiming kExecuteTiming{
    "execute", "stage.execute", "stage.execute.ms", &StepTimings::execute_ms};

/// The one timing seam of a stage run. Construction reads the clock and
/// opens the stage span at that reading; End() (or the destructor) reads
/// it once more and writes that single duration to the span, the
/// histogram (when `metrics` is set) and the StepTimings slot (when
/// `timings` is set), so the three latency views agree exactly.
class StageScope {
 public:
  StageScope(const StageTiming& timing, const TraceContext& trace,
             MetricsSink* metrics, StepTimings* timings);
  ~StageScope() { End(); }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  /// The stage span, for attributes and status (inert when untraced).
  Span& span() { return span_; }

  /// Records the duration once (later calls are no-ops) and returns it
  /// in milliseconds.
  double End();

 private:
  const StageTiming& timing_;
  MetricsSink* metrics_;
  StepTimings* timings_;
  std::chrono::steady_clock::time_point start_;
  Span span_;
  double ms_ = -1.0;
};

/// Everything a search produced.
struct SearchOutput {
  size_t complexity = 1;  // lookup combinatorics (paper Table 4)
  std::vector<std::string> ignored_words;
  std::vector<SodaResult> results;
  StepTimings timings;

  /// Served materialized from the engine's result cache (plain
  /// Soda::Search never sets it).
  bool from_cache = false;

  /// How many of the five pipeline stages this response skipped: 0 for a
  /// cold translation, 1/4 when a session resumed a cached plan
  /// (lookup, or lookup+rank+tables+filters), 5 on a cache hit.
  size_t stages_skipped = 0;
};

/// The per-interpretation slice of the pipeline state. Per-interpretation
/// stages own exactly one of these; nothing else of theirs is shared.
struct InterpretationState {
  Interpretation interpretation;

  /// Materialized by RankStage: the chosen entry point per non-empty term
  /// (ids, copied from the lookup output) and the operator bindings
  /// remapped to the compacted entry indexes.
  std::vector<EntryPoint> entries;
  std::vector<OperatorBinding> operators;

  /// Stage outputs.
  std::optional<TablesOutput> tables;
  std::vector<GeneratedFilter> filters;
  std::optional<SelectStatement> statement;
  StatementKey key;  // the statement's ids, which result dedup compares
  /// The join conditions Generate emitted, in WHERE order (the join
  /// graph's edges). FinalizeOutput names them, with the rest of the
  /// Explanation, for the kept results only.
  std::vector<const JoinEdge*> joins;
  bool fully_connected = true;

  /// Set by any stage to retire the interpretation (no entry points, no
  /// join cover, generation failure, ...). Later stages skip it.
  bool dropped = false;

  /// Per-stage time spent on this interpretation (the tables, filters
  /// and sql slots), summed into the output by FinalizeOutput.
  StepTimings timings;
};

/// All state of one query's trip through the pipeline.
struct QueryContext {
  explicit QueryContext(std::string query) : raw_query(std::move(query)) {}

  std::string raw_query;
  const SodaConfig* config = nullptr;

  /// Optional observability sink. When set, the drivers observe one
  /// "stage.<name>.ms" latency sample per stage execution (query-level
  /// stages once, per-interpretation stages once per state) — the same
  /// duration the stage's span and StepTimings slot carry. Must be
  /// thread-safe: the engine observes from worker threads.
  MetricsSink* metrics = nullptr;

  /// Request-trace handle (inactive by default — every span site is then
  /// one branch). The engine parents it under the caller's span when one
  /// is current; the drivers open one span per stage execution from it.
  /// Copied by value into pool closures, which is how the trace crosses
  /// worker threads. Strictly observational: ranked output is
  /// byte-identical with tracing on or off.
  TraceContext trace;

  /// Optional session constraints (nullptr = unconstrained). Constraint
  /// plumbing per stage: LookupStage and FiltersStage are deliberately
  /// constraint-independent (their outputs are reusable across any
  /// constraint change); RankStage applies term bindings before the
  /// top-N cut; TablesStage is binding-dependent only through the states
  /// RankStage built; SqlStage protects pinned tables from sibling
  /// pruning and enforces pin/ban on the emitted statement. The pointee
  /// must outlive the pipeline run; applied identically by every driver,
  /// so constrained output is byte-identical serial vs. engine vs.
  /// session-resume.
  const SessionConstraints* constraints = nullptr;

  InputQuery parsed;
  LookupOutput lookup;
  std::vector<InterpretationState> states;
  StepTimings timings;
};

/// One step of the pipeline. Implementations must be stateless with
/// respect to queries: Run/RunOne are const and called concurrently for
/// different contexts/states by the SodaEngine worker pool.
class PipelineStage {
 public:
  explicit PipelineStage(const StageTiming& timing) : timing_(timing) {}
  virtual ~PipelineStage() = default;

  /// Stable stage name.
  std::string_view name() const { return timing_.name; }

  /// The span, histogram and StepTimings slot the drivers time it under.
  const StageTiming& timing() const { return timing_; }

  /// True for stages that process one InterpretationState at a time.
  virtual bool per_interpretation() const { return false; }

  /// Query-level entry point. The default implementation of a
  /// per-interpretation stage loops RunOne over all live states.
  virtual Status Run(QueryContext* ctx) const;

  /// Per-interpretation entry point. `ctx` is shared and read-only;
  /// `state` is exclusively owned by the caller. Query-level stages
  /// return kUnsupported.
  virtual Status RunOne(const QueryContext& ctx,
                        InterpretationState* state) const;

 private:
  StageTiming timing_;
};

/// Parse + Step 1 - Lookup. Fails the pipeline on malformed input.
class LookupStage : public PipelineStage {
 public:
  explicit LookupStage(const LookupStep* step)
      : PipelineStage(kLookupTiming), step_(step) {}
  Status Run(QueryContext* ctx) const override;

 private:
  const LookupStep* step_;
};

/// Step 2 - Rank and top N. Creates ctx->states, one per surviving
/// interpretation, with entry points materialized and operator bindings
/// remapped; interpretations with no entry points (and no aggregation to
/// carry them) are created already dropped.
class RankStage : public PipelineStage {
 public:
  RankStage() : PipelineStage(kRankTiming) {}
  Status Run(QueryContext* ctx) const override;
};

/// Step 3 - Tables.
class TablesStage : public PipelineStage {
 public:
  explicit TablesStage(const TablesStep* step)
      : PipelineStage(kTablesTiming), step_(step) {}
  bool per_interpretation() const override { return true; }
  Status RunOne(const QueryContext& ctx,
                InterpretationState* state) const override;

 private:
  const TablesStep* step_;
};

/// Step 4 - Filters.
class FiltersStage : public PipelineStage {
 public:
  explicit FiltersStage(const FiltersStep* step)
      : PipelineStage(kFiltersTiming), step_(step) {}
  bool per_interpretation() const override { return true; }
  Status RunOne(const QueryContext& ctx,
                InterpretationState* state) const override;

 private:
  const FiltersStep* step_;
};

/// Step 5 - SQL: prunes unconstrained inheritance siblings and generates
/// the statement.
class SqlStage : public PipelineStage {
 public:
  explicit SqlStage(const SqlGenerator* generator)
      : PipelineStage(kSqlTiming), generator_(generator) {}
  bool per_interpretation() const override { return true; }
  Status RunOne(const QueryContext& ctx,
                InterpretationState* state) const override;

 private:
  const SqlGenerator* generator_;
};

/// RankStage's per-state work: fills the chosen entry points and the
/// operator bindings of `state` from its interpretation's choice vector
/// over `lookup`. A resumed session plan re-derives them this way
/// instead of storing them.
void MaterializeInterpretation(const LookupOutput& lookup,
                               InterpretationState* state);

/// The base-data value vocabulary the answer depends on: every folded
/// token Step 1 probed against the classification/inverted indexes
/// (matched phrases, ignored words, aggregation and group-by arguments,
/// string comparison operands), sorted and deduplicated, from
/// ctx->parsed and ctx->lookup. The engine computes it only for an
/// answer it caches, and keeps it in the result-cache entry
/// (CachedAnswer), where the FreshnessManager matches it against
/// appended values' tokens (core/freshness.h).
std::vector<std::string> CollectFreshnessTerms(const QueryContext& ctx);

/// Runs the query-level prefix of `stages` (lookup, rank) once, in
/// order, each under a StageScope writing ctx->timings. Per-interpretation
/// stages in the list are skipped. Soda::Search (through RunPipeline) and
/// the engine's translation core start with this; a resumed session plan
/// passes the sub-range of Soda::stages() from its first stage on.
Status RunQueryStages(std::span<const PipelineStage* const> stages,
                      QueryContext* ctx);

/// Runs the per-interpretation suffix of `stages` on one state, in order,
/// each under a StageScope writing state->timings. Query-level stages in
/// the list are skipped. The engine runs it once per state, in ranked
/// order, on the query's own thread.
void RunInterpretationStages(std::span<const PipelineStage* const> stages,
                             const QueryContext& ctx,
                             InterpretationState* state);

/// Serial driver: query-level stages once, per-interpretation stages over
/// every state, with per-stage timings recorded into ctx->timings. This
/// is exactly the paper's Figure 4 loop.
Status RunPipeline(std::span<const PipelineStage* const> stages,
                   QueryContext* ctx);

/// Merges the finished context into a SearchOutput: copies query-level
/// fields, folds per-state timings into the totals, and walks the states
/// in ranked order deduplicating statements by SameStatement; each kept
/// result gets its explanation terms and rendered SQL. Ranked-order
/// merging makes the result list independent of execution schedule.
SearchOutput FinalizeOutput(QueryContext&& ctx);

}  // namespace soda

#endif  // SODA_CORE_PIPELINE_H_
