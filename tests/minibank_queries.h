// The mini-bank query list the engine, serving, freshness and tracing
// suites sweep, in one place. Every listed query must answer at least one
// result on the mini-bank: a query that answers nothing would make every
// byte-identity sweep over the list compare two empty answers. The list
// checks that once per test binary, on first use.

#ifndef SODA_TESTS_MINIBANK_QUERIES_H_
#define SODA_TESTS_MINIBANK_QUERIES_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"

namespace soda {

inline const std::vector<std::string>& MiniBankQueries() {
  static const std::vector<std::string> queries = [] {
    std::vector<std::string> list = {
        "customers Zürich financial instruments",
        "trading volume transaction date between date(2010-01-01) "
        "date(2011-12-31)",
        "addresses Sara Guttinger",
        "sum(amount) group by (currency)",
        "private customers family name",
    };
    auto bank = BuildMiniBank();
    EXPECT_TRUE(bank.ok()) << bank.status();
    if (!bank.ok()) return list;
    SodaConfig config;
    config.execute_snippets = false;
    auto soda = Soda::Create(&(*bank)->db, &(*bank)->graph,
                             CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(soda.ok()) << soda.status();
    if (!soda.ok()) return list;
    for (const std::string& query : list) {
      auto output = (*soda)->Search(query);
      EXPECT_TRUE(output.ok() && !output->results.empty())
          << "mini-bank query answers nothing: " << query;
    }
    return list;
  }();
  return queries;
}

}  // namespace soda

#endif  // SODA_TESTS_MINIBANK_QUERIES_H_
