// Step 1 - Lookup and Step 2 - Rank and top N (paper Section 3).
//
// The lookup step segments every keyword run with the longest-word-
// combination algorithm, which hands back all entry points per accepted
// phrase (one classification lookup per word combination tried), binds
// comparison / between operators to their neighboring phrases, and forms
// the combinatorial product of entry-point choices ("the output of the
// lookup step is a combinatorial product of all lookup terms", Figure 5).
// Ranking scores each interpretation by the metadata location of its entry
// points and keeps the top N.

#ifndef SODA_CORE_LOOKUP_H_
#define SODA_CORE_LOOKUP_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/classification.h"
#include "core/config.h"
#include "core/entry_point.h"
#include "core/input_query.h"
#include "sql/value.h"

namespace soda {

/// A comparison (or between range) bound to a keyword phrase.
struct OperatorBinding {
  size_t term_index = 0;  // index into LookupOutput::terms — the LHS phrase
  CompareOp op = CompareOp::kEq;
  Value literal;
  bool is_between = false;
  Value literal_high;  // upper bound when is_between
};

/// One element of the combinatorial product: a choice of entry point per
/// term.
struct Interpretation {
  std::vector<size_t> choice;  // candidate index per term
  double score = 0.0;
};

struct LookupOutput {
  std::vector<LookupTerm> terms;
  std::vector<OperatorBinding> operators;
  std::vector<std::string> ignored_words;
  /// Untruncated combinatorial product — the paper's query complexity
  /// measure (Table 4).
  size_t complexity = 1;
  std::vector<Interpretation> interpretations;
};

class LookupStep {
 public:
  LookupStep(const ClassificationIndex* index, const SodaConfig* config)
      : index_(index), config_(config) {}

  /// Runs lookup on the parsed input. Aggregation / group-by / top-N
  /// elements pass through untouched (the SQL generator handles them);
  /// their phrases are only counted, for the complexity measure.
  /// When the product of candidate choices exceeds max_interpretations,
  /// only the first max_interpretations are enumerated and, when
  /// `metrics` is set, lookup.interpretations_capped is booked once.
  Result<LookupOutput> Run(const InputQuery& query,
                           MetricsSink* metrics = nullptr) const;

 private:
  const ClassificationIndex* index_;
  const SodaConfig* config_;
};

/// Step 2: scores every interpretation and keeps the best `top_n`,
/// stably ordered by descending score. Returns the kept interpretations.
std::vector<Interpretation> RankAndTopN(const LookupOutput& lookup,
                                        const SodaConfig& config);

/// The ranking weight of one entry point (by metadata layer).
double LayerWeight(MetadataLayer layer);

}  // namespace soda

#endif  // SODA_CORE_LOOKUP_H_
