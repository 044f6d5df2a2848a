// Step 1 - Lookup and Step 2 - Rank and top N (paper Section 3).
//
// The lookup step segments every keyword run with the longest-word-
// combination algorithm, which hands back all entry points per accepted
// phrase (one classification lookup per word combination tried), and
// binds comparison / between operators to their neighboring phrases. Its
// output owns the query's candidates; "the output of the lookup step is a
// combinatorial product of all lookup terms" (Figure 5), which ranking
// enumerates without materializing it: each choice vector is scored as
// the enumeration reaches it (by the metadata location of its entry
// points) and only the top N are kept.

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
};

class LookupStep {
 public:
  LookupStep(const ClassificationIndex* index, const SodaConfig* config)
      : index_(index), config_(config) {}

  /// Runs lookup on the parsed input. Aggregation / group-by / top-N
  /// elements pass through untouched (the SQL generator handles them);
  /// their phrases are only counted, for the complexity measure.
  /// When the product of candidate choices exceeds max_interpretations,
  /// ranking enumerates only the first max_interpretations and, when
  /// `metrics` is set, lookup.interpretations_capped is booked once.
  Result<LookupOutput> Run(const InputQuery& query,
                           MetricsSink* metrics = nullptr) const;

 private:
  const ClassificationIndex* index_;
  const SodaConfig* config_;
};

/// Step 2: enumerates the product of `lookup`'s candidate choices in
/// mixed-radix order (the first term turns fastest; a term with fewer
/// than two candidates stays at 0), at most config.max_interpretations
/// of them, and keeps the best config.top_n, ordered by descending score
/// with ties in enumeration order. Only kept choice vectors are
/// materialized. `allowed`, when set, holds one candidate mask per term
/// (an empty mask allows every candidate); a choice outside a mask still
/// counts against the cap but is not ranked.
std::vector<Interpretation> RankAndTopN(
    const LookupOutput& lookup, const SodaConfig& config,
    const std::vector<std::vector<bool>>* allowed = nullptr);

/// The ranking weight of one entry point (by metadata layer).
double LayerWeight(MetadataLayer layer);

}  // namespace soda

#endif  // SODA_CORE_LOOKUP_H_
