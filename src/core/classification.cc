#include "core/classification.h"

#include <algorithm>

#include "common/strings.h"
#include "graph/vocab.h"
#include "text/tokenizer.h"

namespace soda {

std::string ClassificationIndex::PhraseKey(const std::string& text) {
  return Join(Tokenize(text), " ");
}

void ClassificationIndex::Build(const MetadataGraph& graph,
                                const InvertedIndex* base_data) {
  metadata_.clear();
  base_data_ = base_data;

  // Index every text label attached to a node under the label predicates
  // business users may type.
  static const char* kLabelPredicates[] = {
      vocab::kLabel,      vocab::kEntityname, vocab::kAttributename,
      vocab::kTablename,  vocab::kColumnname,
  };
  for (NodeId n = 0; n < static_cast<NodeId>(graph.num_nodes()); ++n) {
    MetadataLayer layer = graph.layer(n);
    if (layer == MetadataLayer::kOther) continue;  // type nodes etc.
    for (const TextEdge& edge : graph.TextEdges(n)) {
      const std::string& predicate = graph.PredicateUri(edge.predicate);
      bool indexable = false;
      for (const char* p : kLabelPredicates) {
        if (predicate == p) {
          indexable = true;
          break;
        }
      }
      if (!indexable) continue;
      std::string key = PhraseKey(edge.text);
      if (key.empty()) continue;
      auto& bucket = metadata_[key];
      // The same node may carry several labels that fold to one key
      // (e.g. columnname "birth_dt" and label "birth dt").
      bool duplicate = false;
      for (const auto& existing : bucket) {
        if (existing.node == n) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      EntryPoint ep;
      ep.kind = EntryPoint::Kind::kMetadataNode;
      ep.node = n;
      ep.layer = layer;
      ep.label = edge.text;
      bucket.push_back(ep);
    }
  }
}

std::vector<EntryPoint> ClassificationIndex::Lookup(
    const std::string& phrase) const {
  std::vector<EntryPoint> result;
  const std::string key = PhraseKey(phrase);
  if (key.empty()) return result;

  auto it = metadata_.find(key);
  if (it != metadata_.end()) {
    result = it->second;
  }
  if (base_data_ != nullptr) {
    std::vector<ValueRef> refs = base_data_->LookupPhraseRefs(key);
    result.reserve(result.size() + refs.size());
    for (const ValueRef& ref : refs) {
      EntryPoint ep;
      ep.kind = EntryPoint::Kind::kBaseData;
      ep.layer = MetadataLayer::kBaseData;
      ep.table = ref.table;
      ep.column = ref.column;
      ep.cell = ref.cell;
      ep.row_count = ref.row_count;
      ep.label = ref.cell->AsString();
      result.push_back(ep);
    }
  }
  return result;
}

size_t ClassificationIndex::CountMatches(const std::string& phrase) const {
  const std::string key = PhraseKey(phrase);
  if (key.empty()) return 0;
  size_t count = 0;
  auto it = metadata_.find(key);
  if (it != metadata_.end()) count += it->second.size();
  if (base_data_ != nullptr) count += base_data_->CountPhrase(key);
  return count;
}

std::vector<LookupTerm> ClassificationIndex::SegmentKeywords(
    const std::vector<std::string>& words,
    std::vector<std::string>* ignored) const {
  std::vector<LookupTerm> phrases;
  size_t i = 0;
  while (i < words.size()) {
    // Longest combination first: try words[i..j] for the largest j.
    bool matched = false;
    for (size_t len = words.size() - i; len >= 1; --len) {
      std::string phrase = words[i];
      for (size_t w = i + 1; w < i + len; ++w) {
        phrase += ' ';
        phrase += words[w];
      }
      std::vector<EntryPoint> candidates = Lookup(phrase);
      if (!candidates.empty()) {
        phrases.push_back({std::move(phrase), std::move(candidates)});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      if (ignored != nullptr) ignored->push_back(words[i]);
      ++i;
    }
  }
  return phrases;
}

}  // namespace soda
