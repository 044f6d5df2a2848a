#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/strings.h"
#include "core/entry_point.h"
#include "text/tokenizer.h"

namespace soda {

std::string EntryPointKey(const EntryPoint& ep) {
  if (ep.kind == EntryPoint::Kind::kBaseData) {
    return FoldForMatch(ep.table) + "." + FoldForMatch(ep.column) + "=" +
           ep.value;
  }
  return ep.label + "@" + std::string(MetadataLayerName(ep.layer)) + "#" +
         std::to_string(ep.node);
}

std::string Explanation::Render() const {
  std::string out;
  for (const ExplanationTerm& term : terms) {
    if (!out.empty()) out += "; ";
    out += term.phrase + " @ " +
           std::string(MetadataLayerName(term.entry.layer));
  }
  return out;
}

// ---------------------------------------------------------------------------
// SessionConstraints
// ---------------------------------------------------------------------------

namespace {

void InsertSortedUnique(std::vector<std::string>* list, std::string value) {
  auto it = std::lower_bound(list->begin(), list->end(), value);
  if (it != list->end() && *it == value) return;
  list->insert(it, std::move(value));
}

void EraseValue(std::vector<std::string>* list, const std::string& value) {
  auto it = std::lower_bound(list->begin(), list->end(), value);
  if (it != list->end() && *it == value) list->erase(it);
}

}  // namespace

void SessionConstraints::PinTable(const std::string& table) {
  InsertSortedUnique(&pinned_tables, FoldForMatch(table));
}

void SessionConstraints::UnpinTable(const std::string& table) {
  EraseValue(&pinned_tables, FoldForMatch(table));
}

void SessionConstraints::BanTable(const std::string& table) {
  InsertSortedUnique(&banned_tables, FoldForMatch(table));
}

void SessionConstraints::UnbanTable(const std::string& table) {
  EraseValue(&banned_tables, FoldForMatch(table));
}

void SessionConstraints::Bind(const std::string& term,
                              const std::string& entry_key) {
  std::string folded = FoldForMatch(term);
  auto it = std::lower_bound(bindings.begin(), bindings.end(), folded,
                             [](const TermBinding& binding,
                                const std::string& t) {
                               return binding.term < t;
                             });
  if (it != bindings.end() && it->term == folded) {
    it->entry_key = entry_key;  // rebinding a term replaces its target
    return;
  }
  bindings.insert(it, TermBinding{std::move(folded), entry_key});
}

void SessionConstraints::Unbind(const std::string& term) {
  std::string folded = FoldForMatch(term);
  auto it = std::lower_bound(bindings.begin(), bindings.end(), folded,
                             [](const TermBinding& binding,
                                const std::string& t) {
                               return binding.term < t;
                             });
  if (it != bindings.end() && it->term == folded) bindings.erase(it);
}

std::string SessionConstraints::BindingsFingerprint() const {
  std::string fp;
  for (const TermBinding& binding : bindings) {
    if (!fp.empty()) fp += ",";
    fp += binding.term;
    fp += "=";
    fp += binding.entry_key;
  }
  return fp;
}

StageScope::StageScope(const StageTiming& timing, const TraceContext& trace,
                       MetricsSink* metrics, StepTimings* timings)
    : timing_(timing),
      metrics_(metrics),
      timings_(timings),
      start_(std::chrono::steady_clock::now()),
      span_(trace, timing.span, start_) {}

double StageScope::End() {
  if (ms_ >= 0.0) return ms_;
  ms_ = MsSince(start_);
  span_.End(ms_);
  if (metrics_ != nullptr) metrics_->Observe(timing_.histogram, ms_);
  if (timings_ != nullptr) timings_->*timing_.slot += ms_;
  return ms_;
}

// ---------------------------------------------------------------------------
// PipelineStage defaults
// ---------------------------------------------------------------------------

Status PipelineStage::Run(QueryContext* ctx) const {
  if (!per_interpretation()) {
    return Status::Internal("query-level stage must override Run");
  }
  for (InterpretationState& state : ctx->states) {
    if (state.dropped) continue;
    SODA_RETURN_NOT_OK(RunOne(*ctx, &state));
  }
  return Status::OK();
}

Status PipelineStage::RunOne(const QueryContext&, InterpretationState*) const {
  return Status::Unsupported("stage has no per-interpretation entry point");
}

// ---------------------------------------------------------------------------
// LookupStage
// ---------------------------------------------------------------------------

// An appended value whose tokens intersect the probed vocabulary can
// change the query's lookup (a new entry point, a previously ignored word
// that now matches, a shifted candidate count), so the freshness layer
// keys invalidation on it.
std::vector<std::string> CollectFreshnessTerms(const QueryContext& ctx) {
  std::vector<std::string> terms;
  auto add_tokens = [&terms](std::string_view text) {
    for (std::string& token : Tokenize(text)) {
      terms.push_back(std::move(token));
    }
  };
  for (const LookupTerm& term : ctx.lookup.terms) {
    add_tokens(term.phrase);  // already folded; Tokenize just splits
  }
  for (const std::string& word : ctx.lookup.ignored_words) {
    add_tokens(word);
  }
  for (const OperatorBinding& op : ctx.lookup.operators) {
    // String comparison operands ("family name = Meier") are consumed as
    // literals, so they appear in neither terms nor ignored words.
    if (op.literal.type() == ValueType::kString && !op.literal.is_null()) {
      add_tokens(op.literal.AsString());
    }
  }
  for (const InputElement& element : ctx.parsed.elements) {
    if (element.kind == InputElement::Kind::kAggregation) {
      add_tokens(element.agg_argument);
    }
    if (element.kind == InputElement::Kind::kGroupBy) {
      for (const std::string& phrase : element.group_by_phrases) {
        add_tokens(phrase);
      }
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

Status LookupStage::Run(QueryContext* ctx) const {
  SODA_ASSIGN_OR_RETURN(ctx->parsed, ParseInputQuery(ctx->raw_query));
  SODA_ASSIGN_OR_RETURN(ctx->lookup, step_->Run(ctx->parsed, ctx->metrics));
  ctx->freshness_terms = CollectFreshnessTerms(*ctx);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RankStage
// ---------------------------------------------------------------------------

// Terms with no candidates do not contribute an entry point, and
// operator bindings are remapped to the compacted entry indexes.
void MaterializeInterpretation(const LookupOutput& lookup,
                               InterpretationState* state) {
  std::vector<size_t> remap(lookup.terms.size(), SIZE_MAX);
  for (size_t t = 0; t < lookup.terms.size(); ++t) {
    const LookupTerm& term = lookup.terms[t];
    if (term.candidates.empty()) continue;
    remap[t] = state->entries.size();
    const EntryPoint& ep = term.candidates[state->interpretation.choice[t]];
    state->entries.push_back(ep);
    state->explanation.terms.push_back(
        ExplanationTerm{term.phrase, ep, EntryPointKey(ep)});
  }
  for (OperatorBinding binding : lookup.operators) {
    if (binding.term_index < remap.size() &&
        remap[binding.term_index] != SIZE_MAX) {
      binding.term_index = remap[binding.term_index];
      state->operators.push_back(binding);
    }
  }
}

namespace {

// Applies term bindings to the enumerated product: an interpretation
// survives only if its choice for every bound term is the candidate
// carrying the bound entry-point key. Bindings naming an absent term (or
// a term that matched no candidates) are inert — they cannot constrain
// what was never enumerated.
void FilterInterpretationsByBindings(LookupOutput* lookup,
                                     const SessionConstraints& constraints) {
  for (const SessionConstraints::TermBinding& binding : constraints.bindings) {
    size_t term_index = SIZE_MAX;
    for (size_t t = 0; t < lookup->terms.size(); ++t) {
      if (EqualsFolded(lookup->terms[t].phrase, binding.term)) {
        term_index = t;
        break;
      }
    }
    if (term_index == SIZE_MAX) continue;
    const LookupTerm& term = lookup->terms[term_index];
    if (term.candidates.empty()) continue;
    std::vector<bool> allowed(term.candidates.size());
    for (size_t c = 0; c < term.candidates.size(); ++c) {
      allowed[c] = EntryPointKey(term.candidates[c]) == binding.entry_key;
    }
    auto rejected = [&](const Interpretation& interpretation) {
      return !allowed[interpretation.choice[term_index]];
    };
    lookup->interpretations.erase(
        std::remove_if(lookup->interpretations.begin(),
                       lookup->interpretations.end(), rejected),
        lookup->interpretations.end());
  }
}

}  // namespace

Status RankStage::Run(QueryContext* ctx) const {
  std::vector<Interpretation> ranked;
  if (ctx->constraints != nullptr && !ctx->constraints->bindings.empty()) {
    // Bindings narrow the product BEFORE the top-N cut, so binding a term
    // to a low-ranked entry point surfaces interpretations the
    // unconstrained ranking would have dropped. Only the interpretation
    // list is filtered — terms and candidate lists stay untouched, so the
    // surviving choices keep indexing the original candidates.
    LookupOutput constrained = ctx->lookup;
    FilterInterpretationsByBindings(&constrained, *ctx->constraints);
    ranked = RankAndTopN(constrained, *ctx->config);
  } else {
    ranked = RankAndTopN(ctx->lookup, *ctx->config);
  }
  ctx->states.clear();
  ctx->states.reserve(ranked.size());
  for (Interpretation& interpretation : ranked) {
    InterpretationState state;
    state.interpretation = std::move(interpretation);
    MaterializeInterpretation(ctx->lookup, &state);
    if (state.entries.empty() && !ctx->parsed.HasAggregation()) {
      state.dropped = true;
    }
    ctx->states.push_back(std::move(state));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TablesStage
// ---------------------------------------------------------------------------

Status TablesStage::RunOne(const QueryContext& ctx,
                           InterpretationState* state) const {
  Result<TablesOutput> tables = step_->Run(state->entries, ctx.metrics);
  if (!tables.ok()) {
    state->dropped = true;
    return Status::OK();
  }
  state->tables = std::move(*tables);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FiltersStage
// ---------------------------------------------------------------------------

Status FiltersStage::RunOne(const QueryContext&,
                            InterpretationState* state) const {
  Result<std::vector<GeneratedFilter>> filters =
      step_->Run(state->entries, state->operators, *state->tables);
  if (!filters.ok()) {
    state->dropped = true;
    return Status::OK();
  }
  state->filters = std::move(*filters);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SqlStage
// ---------------------------------------------------------------------------

Status SqlStage::RunOne(const QueryContext& ctx,
                        InterpretationState* state) const {
  // Session pins and bans as ids. The constraints hold folded names; a
  // name no table carries resolves to kInvalidTableId, which no statement
  // reads: pinning it drops every interpretation, banning it is inert.
  std::vector<TableId> pinned;
  std::vector<TableId> banned;
  if (ctx.constraints != nullptr) {
    const TableCatalog& catalog = generator_->join_graph().catalog();
    for (const std::string& table : ctx.constraints->pinned_tables) {
      pinned.push_back(catalog.FindFolded(table));
    }
    for (const std::string& table : ctx.constraints->banned_tables) {
      banned.push_back(catalog.FindFolded(table));
    }
  }
  // Step 5 precondition: drop mutually exclusive inheritance siblings
  // that no filter or column constrains. A pinned table counts as
  // constrained — the user asked for it by name.
  generator_->PruneUnconstrainedSiblings(&*state->tables, state->filters,
                                         pinned);

  Result<SelectStatement> stmt =
      generator_->Generate(ctx.parsed, *state->tables, state->filters,
                           &state->key, &state->explanation.joins, ctx.metrics);
  if (!stmt.ok()) {
    state->dropped = true;
    return Status::OK();
  }
  // Pin/ban enforcement over the statement actually emitted: banned
  // tables retire the interpretation, pinned tables must all be read.
  auto reads_table = [state](TableId table) {
    return std::binary_search(state->key.tables.begin(),
                              state->key.tables.end(), table);
  };
  if (std::any_of(banned.begin(), banned.end(), reads_table) ||
      !std::all_of(pinned.begin(), pinned.end(), reads_table)) {
    state->dropped = true;
    return Status::OK();
  }
  state->fully_connected = state->tables->fully_connected;
  // Complete the provenance record with what was actually emitted (the
  // FROM list and joins, which Generate set, reflect the pruning above).
  state->explanation.tables.clear();
  for (const TableRef& ref : stmt->from) {
    state->explanation.tables.push_back(ref.table);
  }
  state->explanation.filters = state->filters;
  state->statement = std::move(*stmt);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

void RunInterpretationStages(std::span<const PipelineStage* const> stages,
                             const QueryContext& ctx,
                             InterpretationState* state) {
  for (const PipelineStage* stage : stages) {
    if (!stage->per_interpretation()) continue;
    if (state->dropped) return;
    // Stage spans record into the shared trace under its own lock; the
    // context rode into this worker by value, which is the explicit
    // cross-thread capture the trace layer is built around.
    StageScope scope(stage->timing(), ctx.trace, ctx.metrics,
                     &state->timings);
    Status st = stage->RunOne(ctx, state);
    if (!st.ok()) {
      // Span-local status only: a retired interpretation is a normal
      // outcome, not a trace-level error. Per-interpretation failures
      // retire the interpretation instead of failing the query — other
      // interpretations are still good answers.
      scope.span().SetStatus(st.message());
      state->dropped = true;
      return;
    }
  }
}

Status RunQueryStages(std::span<const PipelineStage* const> stages,
                      QueryContext* ctx) {
  for (const PipelineStage* stage : stages) {
    if (stage->per_interpretation()) continue;
    StageScope scope(stage->timing(), ctx->trace, ctx->metrics,
                     &ctx->timings);
    Status st = stage->Run(ctx);
    if (!st.ok()) {
      // A failed query-level stage fails the whole query — that is a
      // trace-level error, so the trace survives sampling.
      scope.span().SetError(st.message());
      return st;
    }
  }
  return Status::OK();
}

Status RunPipeline(std::span<const PipelineStage* const> stages,
                   QueryContext* ctx) {
  SODA_RETURN_NOT_OK(RunQueryStages(stages, ctx));
  for (InterpretationState& state : ctx->states) {
    RunInterpretationStages(stages, *ctx, &state);
  }
  return Status::OK();
}

SearchOutput FinalizeOutput(QueryContext&& ctx) {
  SearchOutput output;
  output.complexity = ctx.lookup.complexity;
  output.ignored_words = std::move(ctx.lookup.ignored_words);
  output.timings = ctx.timings;

  // The keys of the kept results, parallel to output.results (ctx.states
  // outlives the loop and is not resized by it).
  std::vector<const StatementKey*> kept;
  for (InterpretationState& state : ctx.states) {
    output.timings.tables_ms += state.timings.tables_ms;
    output.timings.filters_ms += state.timings.filters_ms;
    output.timings.sql_ms += state.timings.sql_ms;
    if (state.dropped || !state.statement.has_value()) continue;
    bool duplicate = false;
    for (size_t k = 0; k < kept.size() && !duplicate; ++k) {
      duplicate = SameStatement(*kept[k], output.results[k].statement,
                                state.key, *state.statement);
    }
    if (duplicate) continue;
    kept.push_back(&state.key);

    SodaResult result;
    result.statement = std::move(*state.statement);
    result.sql = result.statement.ToSql();
    result.score = state.interpretation.score;
    result.explanation = state.explanation.Render();
    result.provenance = std::move(state.explanation);
    result.fully_connected = state.fully_connected;
    output.results.push_back(std::move(result));
  }
  return output;
}

}  // namespace soda
