// Seeded input generation for the end-to-end benchmark. Every value a
// generated query or appended row carries is read out of the
// warehouse's own base data, so variants exercise the same lookup paths
// as the paper's Table 2 queries.

#ifndef SODA_PERFBENCH_INPUTS_H_
#define SODA_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

using Rng = std::mt19937_64;

/// Distinct base-data values per template slot.
struct Vocab {
  std::vector<std::string> given_names;  // indvl_td.given_nm
  std::vector<std::string> org_names;    // org_td.org_nm
  std::vector<std::string> agreements;   // agrmnt_td.agrmnt_nm
  std::vector<std::string> agreement_kinds;  // agrmnt_td.agrmnt_type
  std::vector<std::string> dates;        // trd_ordr_td.period_dt
  std::vector<std::string> currencies;   // crncy_td.cd
  std::vector<std::string> products;     // invst_prod_td.prod_nm
  std::vector<std::string> places;       // addr_td.cntry + addr_td.city
  std::vector<std::string> streets;      // addr_td.street
};

Vocab ExtractVocab(const soda::Database& db);

/// One of the 13 Table 2 queries as a template: `pattern` with "{}"
/// replaced by a value from `slot` (nullptr for a fixed query).
struct QueryTemplate {
  const char* id;
  const char* pattern;
  std::vector<std::string> Vocab::*slot;
  const char* paper_value;
};

const std::vector<QueryTemplate>& Templates();

std::string Instantiate(const QueryTemplate& t, const std::string& value);

/// The paper query of each template, in Table 2 order (13 entries).
std::vector<std::string> PaperQueries();

/// Paper queries plus up to `per_template` seeded value variants of
/// each templated query, template-interleaved, without duplicates
/// beyond the paper's own repeated "Credit Suisse".
std::vector<std::string> VariantPool(const Vocab& vocab, size_t per_template,
                                     Rng* rng);

/// `size` distinct queries: the paper queries first, then variants
/// filled round-robin across the templated queries.
std::vector<std::string> DistinctPool(const Vocab& vocab, size_t size,
                                      Rng* rng);

/// Zipf(s) sampler over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t operator()(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One base-data write: an appended row carrying pool values.
struct AppendRow {
  std::string table;
  soda::Row row;
  std::vector<std::string> tokens;  // folded tokens of its string values
};

/// `count` append rows, two in three to indvl_td (given names taken from
/// `given_pool`), the rest to addr_td (places taken from `place_pool`),
/// with ids starting at `first_id` so they never collide with the
/// generated base data.
std::vector<AppendRow> MakeAppends(const Vocab& vocab,
                                   const std::vector<std::string>& given_pool,
                                   const std::vector<std::string>& place_pool,
                                   size_t count, int64_t first_id, Rng* rng);

/// Lowercased alphanumeric tokens (bytes >= 0x80 count as letters), the
/// conservative token notion the reference memo uses.
std::vector<std::string> FoldTokens(const std::string& text);

}  // namespace perfbench

#endif  // SODA_PERFBENCH_INPUTS_H_
