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

  // Enumerate the product, capped. Terms with zero candidates contribute
  // no choice (their keyword is effectively unmatchable — kept so the
  // caller can report it, skipped in interpretations).
  std::vector<size_t> sizes;
  for (const LookupTerm& term : out.terms) {
    sizes.push_back(term.candidates.size());
  }
  std::vector<size_t> cursor(out.terms.size(), 0);
  for (;;) {
    if (out.interpretations.size() == config_->max_interpretations) {
      // The cap, not the product, ended the enumeration.
      if (metrics != nullptr) {
        metrics->IncrementCounter("lookup.interpretations_capped", 1);
      }
      break;
    }
    Interpretation interpretation;
    interpretation.choice = cursor;
    out.interpretations.push_back(std::move(interpretation));
    // Advance the mixed-radix counter.
    size_t k = 0;
    while (k < cursor.size()) {
      if (sizes[k] <= 1) {
        ++k;
        continue;
      }
      if (++cursor[k] < sizes[k]) break;
      cursor[k] = 0;
      ++k;
    }
    if (k == cursor.size()) break;  // wrapped around: done
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

std::vector<Interpretation> RankAndTopN(const LookupOutput& lookup,
                                        const SodaConfig& config) {
  std::vector<Interpretation> ranked = lookup.interpretations;
  for (Interpretation& interpretation : ranked) {
    double total = 0.0;
    size_t counted = 0;
    for (size_t t = 0; t < lookup.terms.size(); ++t) {
      const LookupTerm& term = lookup.terms[t];
      if (term.candidates.empty()) continue;
      const EntryPoint& ep = term.candidates[interpretation.choice[t]];
      total += LayerWeight(ep.layer);
      ++counted;
    }
    interpretation.score = counted == 0 ? 0.0 : total / counted;
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Interpretation& a, const Interpretation& b) {
                     return a.score > b.score;
                   });
  if (ranked.size() > config.top_n) ranked.resize(config.top_n);
  return ranked;
}

}  // namespace soda
