// The classification index: a unified lookup over all metadata labels and
// the base-data inverted index (paper Step 1 - Lookup and Figure 5).
//
// "A lookup of a single keyword provides us with all the nodes in the
//  metadata graph where this keyword is found."
//
// Every node label of the metadata graph (entity names, attribute names,
// table/column names, ontology concepts, DBpedia terms, metadata filters
// and aggregations) is indexed under its folded token phrase. Base-data
// phrases are resolved through the inverted index. Segmentation looks up
// each word combination it tries once and returns the accepted phrases
// with the entry points that lookup found, so Step 1 needs no second
// probe per phrase.

#ifndef SODA_CORE_CLASSIFICATION_H_
#define SODA_CORE_CLASSIFICATION_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/entry_point.h"
#include "graph/metadata_graph.h"
#include "text/inverted_index.h"

namespace soda {

/// One keyword phrase accepted by segmentation, with all its candidate
/// entry points (ClassificationIndex::Lookup of the phrase).
struct LookupTerm {
  std::string phrase;  // the words joined by single spaces, as typed
  std::vector<EntryPoint> candidates;
  /// Set by the lookup step when an operator binding references this
  /// term — it then contributes a predicate instead of a plain presence
  /// match.
  bool has_operator = false;
};

class ClassificationIndex {
 public:
  /// Builds the index over every labeled node of `graph`. `base_data` may
  /// be nullptr when no inverted index is available (metadata-only mode,
  /// used by the Keymantic baseline comparison).
  void Build(const MetadataGraph& graph, const InvertedIndex* base_data);

  /// Returns all entry points matching the phrase exactly (folded tokens).
  /// Metadata matches come first, base-data matches after.
  std::vector<EntryPoint> Lookup(const std::string& phrase) const;

  /// Lookup(phrase).size() without materializing the entry points — the
  /// complexity accounting only needs candidate counts.
  size_t CountMatches(const std::string& phrase) const;

  /// Longest-word-combination segmentation (paper Section 4.2.2,
  /// "Keywords"): greedily matches the longest prefix of `words` that the
  /// index knows, then continues with the rest. Each combination tried is
  /// looked up once, and an accepted phrase keeps the candidates that
  /// lookup found. Unmatched single words are returned in `ignored`
  /// ("'and' might be unknown and we therefore ignore it").
  std::vector<LookupTerm> SegmentKeywords(
      const std::vector<std::string>& words,
      std::vector<std::string>* ignored) const;

  size_t num_metadata_phrases() const { return metadata_.size(); }

 private:
  /// Folded token-phrase key of `phrase` ("Financial  Instruments" ->
  /// "financial instruments"), the form both indexes are keyed on.
  static std::string PhraseKey(const std::string& phrase);

  // folded phrase -> metadata entry points
  std::unordered_map<std::string, std::vector<EntryPoint>> metadata_;
  const InvertedIndex* base_data_ = nullptr;
};

}  // namespace soda

#endif  // SODA_CORE_CLASSIFICATION_H_
