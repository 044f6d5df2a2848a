// SodaSession — one user's interactive conversation with a SodaService.
//
// The paper's target users iterate: issue a keyword query, look at the
// proposed interpretations, and steer — "not that table", "this phrase
// means the ontology concept, not the column". A session packages that
// loop over any SodaService (e.g. a SodaEngine):
//
//   SodaSession session(&engine);
//   auto first = session.Ask("customers Zürich");
//   // every result carries a structured Explanation (matched terms →
//   // chosen entry points → join edges → generated filters)...
//   session.BanTable("fi_customers");     // "not the FI view"
//   auto second = session.Refine();       // re-runs ONLY Step 5
//   session.BindTerm("zürich", session.TermCandidates("zürich")[1].first);
//   auto third = session.Refine();        // re-ranks from cached lookup
//
// Every answer leaves the session holding the TranslationPlan it was
// translated from — captured by the serve, or, when the answer came from
// the result cache, the plan a session serve stored beside it (none when
// a plain search filled the entry) — and Refine re-runs only the stages
// the constraint change can affect by resuming it:
//
//   serve                           stages re-run            skipped
//   ──────────────────────────────  ───────────────────────  ───────
//   unconstrained, answer cached    none (cache hit)         5
//   pin/ban only                    sql                      4
//   term binding changed            rank, tables, filters,   1
//                                   sql
//   question changed, its answer    sql (no bindings held)   4
//   cached                          or rank..sql (bindings)  1
//   no fresh plan for the question  full pipeline (plan      0
//   (none cached, or base data      captured)
//   moved since the capture)
//
// A constrained serve whose held plan does not fit peeks the plan cached
// beside its question's unconstrained answer without booking a cache hit
// or miss. The output is byte-identical to translating the same query
// cold under the same constraints — the plan is an optimization, never a
// semantic.
//
// Not thread-safe: a session models one user's conversation. Use one
// session per concurrent user; the shared service underneath is fully
// concurrent. A plan is stale as soon as the database's change log
// moves past the sequence it was captured at — any append, whatever it
// touched — and holds no reference to a FreshnessManager, so sessions
// and managers may be destroyed in either order.

#ifndef SODA_CORE_SESSION_H_
#define SODA_CORE_SESSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/service.h"

namespace soda {

class SodaSession {
 public:
  /// `service` must outlive the session.
  explicit SodaSession(SodaService* service) : service_(service) {}

  /// Starts a fresh question: clears the constraints and the held plan,
  /// then translates — or takes the cached answer and any plan cached
  /// beside it — holding the answer's plan for later Refines.
  Result<SearchOutput> Ask(const std::string& query);

  /// Re-translates the current question under the current constraints,
  /// resuming the cached plan where the constraint change allows (see
  /// the stage-skip matrix above). Errors if no question was Asked yet.
  Result<SearchOutput> Refine();

  /// As Refine(), but replaces the question first, keeping the
  /// constraints. A changed question cannot resume the old plan: it
  /// resumes from the plan cached beside the new question's answer, or
  /// runs the pipeline in full and captures a new plan.
  Result<SearchOutput> Refine(const std::string& query);

  /// Constraint levers (semantics in SessionConstraints, pipeline.h).
  /// Chainable; they take effect on the next Refine.
  SodaSession& PinTable(const std::string& table);
  SodaSession& UnpinTable(const std::string& table);
  SodaSession& BanTable(const std::string& table);
  SodaSession& UnbanTable(const std::string& table);
  SodaSession& BindTerm(const std::string& term, const std::string& entry_key);
  SodaSession& UnbindTerm(const std::string& term);
  SodaSession& ClearConstraints();

  /// The entry-point candidates Step 1 found for `term` in the current
  /// question, as (entry_key, human-readable description) pairs in
  /// candidate order — entry_key is a valid BindTerm target. Empty when
  /// no plan is held — before the question's first answer, or after an
  /// Ask served from an entry a plain search filled; any Refine captures
  /// one — or when the term matched nothing.
  std::vector<std::pair<std::string, std::string>> TermCandidates(
      const std::string& term) const;

  const SessionConstraints& constraints() const { return constraints_; }
  const std::string& query() const { return query_; }
  /// Refine calls answered so far (Ask resets nothing here — it is a
  /// lifetime count).
  size_t refines() const { return refines_; }
  /// stages_skipped of the last answer (0 before the first).
  size_t last_stages_skipped() const { return last_stages_skipped_; }

 private:
  Result<SearchOutput> Run();

  SodaService* service_;
  std::string query_;
  SessionConstraints constraints_;
  std::shared_ptr<const TranslationPlan> plan_;
  size_t refines_ = 0;
  size_t last_stages_skipped_ = 0;
};

}  // namespace soda

#endif  // SODA_CORE_SESSION_H_
