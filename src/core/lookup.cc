#include "core/lookup.h"

#include <algorithm>

#include "common/strings.h"

namespace soda {

namespace {

// Converts a literal input element to a typed Value.
Value LiteralValue(const InputElement& element) {
  switch (element.kind) {
    case InputElement::Kind::kDate:
      return Value::DateV(element.date);
    case InputElement::Kind::kNumber:
      return element.number_is_integer ? Value::Int(element.integer)
                                       : Value::Real(element.number);
    default:
      return Value::Null();
  }
}

bool IsLiteral(const InputElement& element) {
  return element.kind == InputElement::Kind::kDate ||
         element.kind == InputElement::Kind::kNumber;
}

}  // namespace

Result<LookupOutput> LookupStep::Run(const InputQuery& query,
                                     MetricsSink* metrics) const {
  LookupOutput out;

  // Pass 1: segment keyword runs into phrases and record terms.
  // Track, per element index, the range of terms it produced so operator
  // binding can find "the keyword before the operator".
  std::vector<std::pair<size_t, size_t>> term_range(query.elements.size(),
                                                    {0, 0});
  for (size_t e = 0; e < query.elements.size(); ++e) {
    const InputElement& element = query.elements[e];
    if (element.kind != InputElement::Kind::kKeywords) {
      term_range[e] = {out.terms.size(), out.terms.size()};
      continue;
    }
    size_t begin = out.terms.size();
    for (LookupTerm& term :
         index_->SegmentKeywords(element.words, &out.ignored_words)) {
      out.terms.push_back(std::move(term));
    }
    term_range[e] = {begin, out.terms.size()};
  }

  // Pass 2: bind comparison and between operators.
  for (size_t e = 0; e < query.elements.size(); ++e) {
    const InputElement& element = query.elements[e];
    if (element.kind == InputElement::Kind::kComparison) {
      // LHS: the last phrase produced before this operator.
      size_t lhs = term_range[e].first;
      if (lhs == 0) {
        return Status::InvalidArgument(
            "comparison operator has no keyword on its left in '" +
            query.raw + "'");
      }
      --lhs;
      if (e + 1 >= query.elements.size()) {
        return Status::InvalidArgument(
            "comparison operator has no operand on its right in '" +
            query.raw + "'");
      }
      const InputElement& rhs = query.elements[e + 1];
      OperatorBinding binding;
      binding.term_index = lhs;
      binding.op = element.op;
      if (IsLiteral(rhs)) {
        binding.literal = LiteralValue(rhs);
      } else if (rhs.kind == InputElement::Kind::kKeywords &&
                 !rhs.words.empty()) {
        // The operand is a word (paper Query 2 writes "salary >= x").
        // It is consumed as a string literal, not classified.
        binding.literal = Value::Str(rhs.words[0]);
        // Remove the consumed word's term if segmentation matched it.
        // (Operands are typically values, which segmentation does match
        // when they occur in the base data; drop that term.)
        size_t begin = term_range[e + 1].first;
        size_t end = term_range[e + 1].second;
        if (end > begin &&
            EqualsFolded(out.terms[begin].phrase, rhs.words[0])) {
          out.terms.erase(out.terms.begin() + static_cast<long>(begin));
          for (size_t k = e + 1; k < query.elements.size(); ++k) {
            if (term_range[k].first > begin) --term_range[k].first;
            if (term_range[k].second > begin) --term_range[k].second;
          }
          for (auto& op : out.operators) {
            if (op.term_index > begin) --op.term_index;
          }
        }
      } else {
        return Status::InvalidArgument(
            "unsupported operand after comparison operator");
      }
      out.terms[binding.term_index].has_operator = true;
      out.operators.push_back(std::move(binding));
      continue;
    }
    if (element.kind == InputElement::Kind::kBetween) {
      size_t lhs = term_range[e].first;
      if (lhs == 0) {
        return Status::InvalidArgument(
            "'between' has no keyword on its left in '" + query.raw + "'");
      }
      --lhs;
      if (e + 2 >= query.elements.size() ||
          !IsLiteral(query.elements[e + 1]) ||
          !IsLiteral(query.elements[e + 2])) {
        return Status::InvalidArgument(
            "'between' requires two literals, e.g. between date(2010-01-01) "
            "date(2010-12-31)");
      }
      OperatorBinding binding;
      binding.term_index = lhs;
      binding.op = CompareOp::kGe;
      binding.is_between = true;
      binding.literal = LiteralValue(query.elements[e + 1]);
      binding.literal_high = LiteralValue(query.elements[e + 2]);
      out.terms[binding.term_index].has_operator = true;
      out.operators.push_back(std::move(binding));
      continue;
    }
  }

  // Pass 3: combinatorial product. Aggregation and group-by arguments are
  // resolved by the SQL generator (which picks the best candidate), but
  // their candidate counts contribute to the query complexity measure
  // (paper Table 4 reports complexity 25 for the pure-aggregation Q10.0).
  out.complexity = 1;
  bool overflowed = false;
  auto account = [&](size_t n) {
    n = std::max<size_t>(n, 1);
    if (out.complexity > 1000000 / n) overflowed = true;
    out.complexity *= n;
  };
  for (const LookupTerm& term : out.terms) {
    account(term.candidates.size());
  }
  for (const InputElement& element : query.elements) {
    if (element.kind == InputElement::Kind::kAggregation &&
        !element.agg_argument.empty()) {
      // Count-only probe: the accounting needs the candidate count, not
      // the (potentially large) materialized entry-point vectors.
      account(index_->CountMatches(element.agg_argument));
    }
    if (element.kind == InputElement::Kind::kGroupBy) {
      for (const std::string& phrase : element.group_by_phrases) {
        account(index_->CountMatches(phrase));
      }
    }
  }
  if (overflowed) out.complexity = 1000000;

  // Ranking enumerates the product of the terms' candidate counts, a
  // term without candidates counting as one choice; the cap, not the
  // product, ends it when the product is larger.
  size_t product = 1;
  for (const LookupTerm& term : out.terms) {
    size_t n = std::max<size_t>(term.candidates.size(), 1);
    if (product > config_->max_interpretations / n) {
      product = config_->max_interpretations + 1;
      break;
    }
    product *= n;
  }
  if (product > config_->max_interpretations && metrics != nullptr) {
    metrics->IncrementCounter("lookup.interpretations_capped", 1);
  }
  return out;
}

// Ranking weights by entry-point location (paper Step 2: "a keyword
// which was found in DBpedia gets a lower score than a keyword which was
// found in the domain ontology").
constexpr double kWeightDomainOntology = 1.0;
constexpr double kWeightConceptual = 0.85;
constexpr double kWeightLogical = 0.80;
constexpr double kWeightPhysical = 0.75;
constexpr double kWeightBaseData = 0.70;
constexpr double kWeightDbpedia = 0.40;

double LayerWeight(MetadataLayer layer) {
  switch (layer) {
    case MetadataLayer::kDomainOntology:
      return kWeightDomainOntology;
    case MetadataLayer::kConceptualSchema:
      return kWeightConceptual;
    case MetadataLayer::kLogicalSchema:
      return kWeightLogical;
    case MetadataLayer::kPhysicalSchema:
      return kWeightPhysical;
    case MetadataLayer::kBaseData:
      return kWeightBaseData;
    case MetadataLayer::kDbpedia:
      return kWeightDbpedia;
    case MetadataLayer::kOther:
      return 0.1;
  }
  return 0.1;
}

std::vector<Interpretation> RankAndTopN(
    const LookupOutput& lookup, const SodaConfig& config,
    const std::vector<std::vector<bool>>* allowed) {
  const std::vector<LookupTerm>& terms = lookup.terms;
  std::vector<Interpretation> kept;
  if (config.top_n == 0) return kept;
  // Terms with zero candidates contribute no choice (their keyword is
  // effectively unmatchable — kept so the caller can report it, skipped
  // in interpretations).
  std::vector<size_t> cursor(terms.size(), 0);
  for (size_t enumerated = 0; enumerated < config.max_interpretations;
       ++enumerated) {
    bool admitted = true;
    double total = 0.0;
    size_t counted = 0;
    for (size_t t = 0; t < terms.size() && admitted; ++t) {
      if (terms[t].candidates.empty()) continue;
      if (allowed != nullptr && !(*allowed)[t].empty()) {
        admitted = (*allowed)[t][cursor[t]];
      }
      total += LayerWeight(terms[t].candidates[cursor[t]].layer);
      ++counted;
    }
    if (admitted) {
      const double score = counted == 0 ? 0.0 : total / counted;
      // After every kept interpretation scoring at least as high: a
      // stable sort of the enumeration by descending score.
      auto pos = std::find_if(kept.begin(), kept.end(),
                              [score](const Interpretation& k) {
                                return k.score < score;
                              });
      const size_t at = static_cast<size_t>(pos - kept.begin());
      if (at < config.top_n) {
        Interpretation interpretation;
        if (kept.size() == config.top_n) {
          interpretation = std::move(kept.back());  // reuse its buffer
          kept.pop_back();
        }
        interpretation.choice.assign(cursor.begin(), cursor.end());
        interpretation.score = score;
        kept.insert(kept.begin() + static_cast<long>(at),
                    std::move(interpretation));
      }
    }
    // Advance the mixed-radix counter.
    size_t k = 0;
    while (k < cursor.size()) {
      if (terms[k].candidates.size() <= 1) {
        ++k;
        continue;
      }
      if (++cursor[k] < terms[k].candidates.size()) break;
      cursor[k] = 0;
      ++k;
    }
    if (k == cursor.size()) break;  // wrapped around: done
  }
  return kept;
}

}  // namespace soda
