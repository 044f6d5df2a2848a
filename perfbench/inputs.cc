#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/date.h"

namespace perfbench {

namespace {

std::vector<std::string> Distinct(const soda::Database& db,
                                  const std::string& table_name,
                                  const std::string& column) {
  std::set<std::string> values;
  const soda::Table* table = db.FindTable(table_name);
  if (table == nullptr) return {};
  int index = table->ColumnIndex(column);
  if (index < 0) return {};
  for (const soda::Row& row : table->rows()) {
    const soda::Value& value = row[static_cast<size_t>(index)];
    if (!value.is_null()) values.insert(value.ToDisplayString());
  }
  return {values.begin(), values.end()};
}

std::string Lower(std::string text) {
  for (char& c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return text;
}

template <typename T>
void Shuffle(std::vector<T>* values, Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[(*rng)() % i]);
  }
}

/// The slot values of `t` other than its paper value, in seeded order.
std::vector<std::string> ShuffledSlot(const QueryTemplate& t,
                                      const Vocab& vocab, Rng* rng) {
  if (t.slot == nullptr) return {};
  std::vector<std::string> values;
  for (const std::string& value : vocab.*(t.slot)) {
    if (value != t.paper_value) values.push_back(value);
  }
  Shuffle(&values, rng);
  return values;
}

}  // namespace

Vocab ExtractVocab(const soda::Database& db) {
  Vocab vocab;
  vocab.given_names = Distinct(db, "indvl_td", "given_nm");
  vocab.org_names = Distinct(db, "org_td", "org_nm");
  vocab.agreements = Distinct(db, "agrmnt_td", "agrmnt_nm");
  for (const std::string& kind : Distinct(db, "agrmnt_td", "agrmnt_type")) {
    vocab.agreement_kinds.push_back(Lower(kind));
  }
  vocab.dates = Distinct(db, "trd_ordr_td", "period_dt");
  vocab.currencies = Distinct(db, "crncy_td", "cd");
  vocab.products = Distinct(db, "invst_prod_td", "prod_nm");
  vocab.places = Distinct(db, "addr_td", "cntry");
  for (const std::string& city : Distinct(db, "addr_td", "city")) {
    vocab.places.push_back(city);
  }
  vocab.streets = Distinct(db, "addr_td", "street");
  return vocab;
}

const std::vector<QueryTemplate>& Templates() {
  static const std::vector<QueryTemplate> kTemplates = {
      {"1.0", "private customers family name", nullptr, ""},
      {"2.1", "{}", &Vocab::given_names, "Sara"},
      {"2.2", "{} given name", &Vocab::given_names, "Sara"},
      {"2.3", "{} birth date", &Vocab::given_names, "Sara"},
      {"3.1", "{}", &Vocab::org_names, "Credit Suisse"},
      {"3.2", "{}", &Vocab::agreements, "Credit Suisse"},
      {"4.0", "{} agreement", &Vocab::agreement_kinds, "gold"},
      {"5.0", "customers names", nullptr, ""},
      {"6.0", "trade order period > date({})", &Vocab::dates, "2011-09-01"},
      {"7.0", "{} trade order", &Vocab::currencies, "YEN"},
      {"8.0", "trade order investment product {}", &Vocab::products,
       "Lehman XYZ"},
      {"9.0", "select count() private customers {}", &Vocab::places,
       "Switzerland"},
      {"10.0", "sum(investments) group by (currency)", nullptr, ""},
  };
  return kTemplates;
}

std::string Instantiate(const QueryTemplate& t, const std::string& value) {
  std::string query = t.pattern;
  size_t at = query.find("{}");
  if (at != std::string::npos) query.replace(at, 2, value);
  return query;
}

std::vector<std::string> PaperQueries() {
  std::vector<std::string> queries;
  for (const QueryTemplate& t : Templates()) {
    queries.push_back(Instantiate(t, t.paper_value));
  }
  return queries;
}

std::vector<std::string> VariantPool(const Vocab& vocab, size_t per_template,
                                     Rng* rng) {
  std::vector<std::string> pool = PaperQueries();
  std::set<std::string> seen(pool.begin(), pool.end());
  std::vector<std::vector<std::string>> slots;
  for (const QueryTemplate& t : Templates()) {
    slots.push_back(ShuffledSlot(t, vocab, rng));
  }
  for (size_t k = 0; k < per_template; ++k) {
    for (size_t t = 0; t < Templates().size(); ++t) {
      if (k >= slots[t].size()) continue;
      std::string query = Instantiate(Templates()[t], slots[t][k]);
      if (seen.insert(query).second) pool.push_back(query);
    }
  }
  return pool;
}

std::vector<std::string> DistinctPool(const Vocab& vocab, size_t size,
                                      Rng* rng) {
  std::vector<std::string> pool;
  std::set<std::string> seen;
  for (const std::string& query : PaperQueries()) {
    if (seen.insert(query).second) pool.push_back(query);
  }
  std::vector<std::vector<std::string>> slots;
  for (const QueryTemplate& t : Templates()) {
    slots.push_back(ShuffledSlot(t, vocab, rng));
  }
  for (size_t k = 0; pool.size() < size; ++k) {
    bool any = false;
    for (size_t t = 0; t < Templates().size() && pool.size() < size; ++t) {
      if (k >= slots[t].size()) continue;
      any = true;
      std::string query = Instantiate(Templates()[t], slots[t][k]);
      if (seen.insert(query).second) pool.push_back(query);
    }
    if (!any) break;
  }
  return pool;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  double total = 0.0;
  cdf_.reserve(n);
  for (size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::operator()(Rng* rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  size_t index = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(index, cdf_.size() - 1);
}

std::vector<AppendRow> MakeAppends(const Vocab& vocab,
                                   const std::vector<std::string>& given_pool,
                                   const std::vector<std::string>& place_pool,
                                   size_t count, int64_t first_id, Rng* rng) {
  std::vector<AppendRow> rows;
  rows.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    int64_t id = first_id + static_cast<int64_t>(j);
    AppendRow append;
    if (j % 3 != 2 && !given_pool.empty()) {
      const std::string& given = given_pool[(*rng)() % given_pool.size()];
      append.table = "indvl_td";
      append.row = {soda::Value::Int(id), soda::Value::Str(given),
                    soda::Value::DateV(soda::Date::FromYmd(
                        1950 + static_cast<int>((*rng)() % 45),
                        1 + static_cast<int>((*rng)() % 12),
                        1 + static_cast<int>((*rng)() % 28))),
                    soda::Value::Int(40000 + static_cast<int64_t>(
                                                 (*rng)() % 2000) * 1000),
                    soda::Value::Int(0)};
      append.tokens = FoldTokens(given);
    } else {
      const std::string& place =
          place_pool.empty() ? vocab.places.front()
                             : place_pool[(*rng)() % place_pool.size()];
      const std::string& street =
          vocab.streets[(*rng)() % vocab.streets.size()];
      append.table = "addr_td";
      append.row = {soda::Value::Int(id), soda::Value::Str(street),
                    soda::Value::Str(place), soda::Value::Str(place)};
      append.tokens = FoldTokens(street + " " + place);
    }
    rows.push_back(std::move(append));
  }
  return rows;
}

std::vector<std::string> FoldTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    unsigned char u = static_cast<unsigned char>(c);
    if ((u >= 'a' && u <= 'z') || (u >= '0' && u <= '9') || u >= 0x80) {
      current.push_back(c);
    } else if (u >= 'A' && u <= 'Z') {
      current.push_back(static_cast<char>(u - 'A' + 'a'));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace perfbench
